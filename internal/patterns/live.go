package patterns

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stack"
)

// The blocking bodies below are deliberately named top-level functions so
// that each pattern produces a distinct, recognisable stack signature —
// exactly what GOLEAK and LEAKPROF key on.

// AwaitKind polls the live goroutine dump until at least n goroutines of
// the given blocking kind exist, or the timeout elapses. Trigger returns
// as soon as the goroutines are spawned; callers that measure blocking
// state must await the park.
func AwaitKind(kind stack.Kind, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		gs, err := stack.Current()
		if err != nil {
			return err
		}
		count := 0
		for _, g := range gs {
			if g.Kind() == kind {
				count++
			}
		}
		if count >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("patterns: only %d/%d goroutines reached %v within %v", count, n, kind, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- Premature function return (Listing 1 / Listing 7; §VII-A1) ----

func prematureSender(ch chan int, wg *sync.WaitGroup) {
	defer wg.Done()
	ch <- 1 // blocks forever: the parent returned without receiving
}

// PrematureReturn is the motivating example: the parent spawns a sender on
// an unbuffered channel and returns on an error path without receiving.
var PrematureReturn = register(&Pattern{
	Name:       "premature-return",
	Doc:        "Listings 1 and 7: parent returns early; sender on unbuffered channel leaks",
	Category:   CatSend,
	Kind:       stack.KindChanSend,
	Releasable: true,
	Trigger: func(n int) *Instance {
		chans := make([]chan int, n)
		var wg sync.WaitGroup
		for i := range chans {
			ch := make(chan int)
			chans[i] = ch
			wg.Add(1)
			go prematureSender(ch, &wg)
			// The parent's error path: return without <-ch.
		}
		return &Instance{
			N: n, Releasable: true,
			release: func() {
				for _, ch := range chans {
					<-ch
				}
			},
			wait: wg.Wait,
		}
	},
	Fixed: func(n int) {
		// The paper's simplest fix: give the channel a buffer of one,
		// unblocking the send unconditionally.
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			ch := make(chan int, 1)
			wg.Add(1)
			go prematureSender(ch, &wg)
		}
		wg.Wait()
	},
	Stacks: stacksTemplate("chan send",
		"repro/internal/patterns.prematureSender", "internal/patterns/live.go", 52,
		"repro/internal/patterns.PrematureReturn.Trigger"),
})

// ---- The timeout leak (Listing 8; §VII-A2) ----

func timeoutSender(ch chan int, wg *sync.WaitGroup) {
	defer wg.Done()
	ch <- 1 // no receiver: the handler's select took ctx.Done()
}

// TimeoutLeak is the context-cancellation variant of premature return:
// a handler selects between the worker channel and ctx.Done(), and the
// context wins. Trigger's deadline has already fired, so its handler
// waits on ctx.Done() alone: a select that also offered the receive
// would take it whenever the sender was already parked on its send, and
// that sender would not leak.
var TimeoutLeak = register(&Pattern{
	Name:       "timeout-leak",
	Doc:        "Listing 8: handler returns on ctx.Done() before receiving from the worker",
	Category:   CatSend,
	Kind:       stack.KindChanSend,
	Releasable: true,
	Trigger: func(n int) *Instance {
		chans := make([]chan int, n)
		var wg sync.WaitGroup
		for i := range chans {
			ch := make(chan int)
			chans[i] = ch
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // the request deadline has already fired
			wg.Add(1)
			go timeoutSender(ch, &wg)
			<-ctx.Done() // handler returns; sender leaks
		}
		return &Instance{
			N: n, Releasable: true,
			release: func() {
				for _, ch := range chans {
					<-ch
				}
			},
			wait: wg.Wait,
		}
	},
	Fixed: func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			ch := make(chan int, 1) // capacity 1: send cannot block
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			wg.Add(1)
			go timeoutSender(ch, &wg)
			select {
			case <-ch:
			case <-ctx.Done():
			}
		}
		wg.Wait()
	},
	Stacks: stacksTemplate("chan send",
		"repro/internal/patterns.timeoutSender", "internal/patterns/live.go", 101,
		"repro/internal/patterns.TimeoutLeak.Trigger"),
})

// ---- The NCast leak (Listing 9; §VII-A3) ----

func ncastSender(ch chan int, v int, wg *sync.WaitGroup) {
	defer wg.Done()
	ch <- v // only the first sender finds the single receiver
}

// NCast spawns one sender per item on an unbuffered channel but receives
// only once; all senders but the first leak.
var NCast = register(&Pattern{
	Name:       "ncast-leak",
	Doc:        "Listing 9: len(items) sends, one receive; n-1 senders leak",
	Category:   CatSend,
	Kind:       stack.KindChanSend,
	Releasable: true,
	Trigger: func(n int) *Instance {
		ch := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < n+1; i++ {
			wg.Add(1)
			go ncastSender(ch, i, &wg)
		}
		<-ch // wait for the first result, ignore the rest
		return &Instance{
			N: n, Releasable: true,
			release: func() {
				for i := 0; i < n; i++ {
					<-ch
				}
			},
			wait: wg.Wait,
		}
	},
	Fixed: func(n int) {
		// Capacity len(items) guarantees every send unblocks.
		ch := make(chan int, n+1)
		var wg sync.WaitGroup
		for i := 0; i < n+1; i++ {
			wg.Add(1)
			go ncastSender(ch, i, &wg)
		}
		<-ch
		wg.Wait()
	},
	Stacks: stacksTemplate("chan send",
		"repro/internal/patterns.ncastSender", "internal/patterns/live.go", 148,
		"repro/internal/patterns.NCast.Trigger"),
})

// ---- The double send (Listing 5; §VI-B1) ----

func doubleSender(ch chan int, wg *sync.WaitGroup) {
	defer wg.Done()
	fail := true
	if fail {
		ch <- 0 // error path: send nil... and forget to return
	}
	ch <- 1 // second send: no receiver remains
}

// DoubleSend reproduces the missing-return bug: the error path sends, falls
// through, and sends again to a receiver that only reads once.
var DoubleSend = register(&Pattern{
	Name:       "double-send",
	Doc:        "Listing 5: missing return after the error send; second send leaks",
	Category:   CatSend,
	Kind:       stack.KindChanSend,
	Releasable: true,
	Trigger: func(n int) *Instance {
		chans := make([]chan int, n)
		var wg sync.WaitGroup
		for i := range chans {
			ch := make(chan int)
			chans[i] = ch
			wg.Add(1)
			go doubleSender(ch, &wg)
			<-ch // the receiver accepts exactly one message
		}
		return &Instance{
			N: n, Releasable: true,
			release: func() {
				for _, ch := range chans {
					<-ch // accept the stray second message
				}
			},
			wait: wg.Wait,
		}
	},
	Fixed: func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			ch := make(chan int, 2) // room for both sends
			wg.Add(1)
			go doubleSender(ch, &wg)
			<-ch
		}
		wg.Wait()
	},
	Stacks: stacksTemplate("chan send",
		"repro/internal/patterns.doubleSender", "internal/patterns/live.go", 190,
		"repro/internal/patterns.DoubleSend.Trigger"),
})

// ---- Missing receiver (§VI-B: API caller never creates the receiver) ----

func orphanSender(ch chan int, wg *sync.WaitGroup) {
	defer wg.Done()
	ch <- 1
}

// MissingReceiver models a library API that spawns a sender while the
// caller never wires up the receiving side.
var MissingReceiver = register(&Pattern{
	Name:       "missing-receiver",
	Doc:        "§VI-B: library creates the sender; caller never creates the receiver",
	Category:   CatSend,
	Kind:       stack.KindChanSend,
	Releasable: true,
	Trigger: func(n int) *Instance {
		chans := make([]chan int, n)
		var wg sync.WaitGroup
		for i := range chans {
			ch := make(chan int)
			chans[i] = ch
			wg.Add(1)
			go orphanSender(ch, &wg)
		}
		return &Instance{
			N: n, Releasable: true,
			release: func() {
				for _, ch := range chans {
					<-ch
				}
			},
			wait: wg.Wait,
		}
	},
	Fixed: func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			ch := make(chan int)
			wg.Add(1)
			go orphanSender(ch, &wg)
			<-ch // the caller correctly consumes the result
		}
		wg.Wait()
	},
	Stacks: stacksTemplate("chan send",
		"repro/internal/patterns.orphanSender", "internal/patterns/live.go", 233,
		"repro/internal/patterns.MissingReceiver.Trigger"),
})

// ---- Unclosed range loop (Listing 3; §VI-A1) ----

func rangeConsumer(ch chan int, wg *sync.WaitGroup) {
	defer wg.Done()
	for range ch { // exits only when ch is closed — which never happens
	}
}

// UnclosedRange is the producer/consumer pool whose producer forgets
// close(ch): after the last item, every consumer blocks in channel
// receive.
var UnclosedRange = register(&Pattern{
	Name:       "unclosed-range",
	Doc:        "Listing 3: consumers range over a channel the producer never closes",
	Category:   CatReceive,
	Kind:       stack.KindChanReceive,
	Releasable: true,
	Trigger: func(n int) *Instance {
		ch := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go rangeConsumer(ch, &wg)
		}
		for i := 0; i < 3; i++ { // the producer inserts a few items
			ch <- i
		}
		// ... and returns without close(ch).
		return &Instance{
			N: n, Releasable: true,
			release: func() { close(ch) },
			wait:    wg.Wait,
		}
	},
	Fixed: func(n int) {
		ch := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go rangeConsumer(ch, &wg)
		}
		for i := 0; i < 3; i++ {
			ch <- i
		}
		close(ch) // the missing statement
		wg.Wait()
	},
	Stacks: stacksTemplate("chan receive",
		"repro/internal/patterns.rangeConsumer", "internal/patterns/live.go", 279,
		"repro/internal/patterns.UnclosedRange.Trigger"),
})

// ---- Infinite receive loop with timers (Listing 4; §VI-A2) ----

func timerLoop(t *time.Timer, stopped *atomic.Bool, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		<-t.C // idiomatic heartbeat stall: blocks in chan receive
		if stopped.Load() {
			return
		}
		t.Reset(time.Hour)
	}
}

// TimerLoop is the stats-reporter anti-pattern: a goroutine whose lifetime
// nothing controls, periodically waking on a timer channel. The paper
// counts these under channel-receive leaks (44% of them).
var TimerLoop = register(&Pattern{
	Name:       "timer-loop",
	Doc:        "Listing 4: infinite <-timer.C heartbeat loop with no termination arm",
	Category:   CatReceive,
	Kind:       stack.KindChanReceive,
	Releasable: true,
	Trigger: func(n int) *Instance {
		timers := make([]*time.Timer, n)
		var stopped atomic.Bool
		var wg sync.WaitGroup
		for i := range timers {
			t := time.NewTimer(time.Hour)
			timers[i] = t
			wg.Add(1)
			go timerLoop(t, &stopped, &wg)
		}
		return &Instance{
			N: n, Releasable: true,
			release: func() {
				stopped.Store(true)
				for _, t := range timers {
					t.Reset(0) // fire immediately; the loop observes stopped
				}
			},
			wait: wg.Wait,
		}
	},
	Fixed: func(n int) {
		// The paper's recommendation: a select with a termination arm.
		done := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			t := time.NewTimer(time.Hour)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer t.Stop()
				for {
					select {
					case <-t.C:
						t.Reset(time.Hour)
					case <-done:
						return
					}
				}
			}()
		}
		close(done)
		wg.Wait()
	},
	Stacks: stacksTemplate("chan receive",
		"repro/internal/patterns.timerLoop", "internal/patterns/live.go", 327,
		"repro/internal/patterns.TimerLoop.Trigger"),
})
