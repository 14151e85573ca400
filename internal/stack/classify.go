package stack

import "strings"

// Kind is the blocking taxonomy of Table IV in the paper: every lingering
// goroutine observed at the end of the monorepo test run is classified into
// one of these buckets.
type Kind int

const (
	// KindUnknown marks states the classifier does not recognise.
	KindUnknown Kind = iota
	// KindRunning covers running and runnable goroutines.
	KindRunning
	// KindChanSend is a blocking send on a non-nil channel.
	KindChanSend
	// KindChanSendNil is a send on a nil channel (a guaranteed partial
	// deadlock).
	KindChanSendNil
	// KindChanReceive is a blocking receive on a non-nil channel.
	KindChanReceive
	// KindChanReceiveNil is a receive on a nil channel (a guaranteed
	// partial deadlock).
	KindChanReceiveNil
	// KindSelect is a blocking select with at least one case.
	KindSelect
	// KindSelectNoCases is "select {}": blocks forever by construction.
	KindSelectNoCases
	// KindIOWait is network or file IO.
	KindIOWait
	// KindSyscall is a goroutine inside a system call.
	KindSyscall
	// KindSleep is time.Sleep.
	KindSleep
	// KindCondWait is sync.Cond.Wait.
	KindCondWait
	// KindSemacquire is a semaphore acquisition: sync.Mutex.Lock,
	// sync.WaitGroup.Wait, sync.RWMutex, and raw semaphores.
	KindSemacquire
	// KindTimer covers goroutines parked on timer internals
	// (time.Sleep is KindSleep; this is chan-receive on a timer managed
	// by the classifier's frame inspection).
	KindTimer
	// KindGC covers garbage-collector helper states (GC assist wait,
	// GC sweep wait, force gc (idle), ...).
	KindGC
	// KindFinalizer is the runtime finalizer/cleanup goroutine.
	KindFinalizer

	numKinds
)

var kindNames = [...]string{
	KindUnknown:        "unknown",
	KindRunning:        "running/runnable",
	KindChanSend:       "chan send (non-nil chan)",
	KindChanSendNil:    "chan send (nil chan)",
	KindChanReceive:    "chan receive (non-nil chan)",
	KindChanReceiveNil: "chan receive (nil chan)",
	KindSelect:         "select (>0 cases)",
	KindSelectNoCases:  "select (0 cases)",
	KindIOWait:         "IO wait",
	KindSyscall:        "system call",
	KindSleep:          "sleep",
	KindCondWait:       "condition wait",
	KindSemacquire:     "semaphore acquire",
	KindTimer:          "timer",
	KindGC:             "garbage collection",
	KindFinalizer:      "finalizer",
}

// String returns the Table-IV row label for the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "invalid"
	}
	return kindNames[k]
}

// Kinds returns all classifiable kinds in declaration order, for iteration
// when building Table IV.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// ChannelOp returns the channel-operation family for the kind as used by
// LEAKPROF grouping: "send", "receive", "select", or "" for non-channel
// kinds.
func (k Kind) ChannelOp() string {
	switch k {
	case KindChanSend, KindChanSendNil:
		return "send"
	case KindChanReceive, KindChanReceiveNil:
		return "receive"
	case KindSelect, KindSelectNoCases:
		return "select"
	}
	return ""
}

// GuaranteedLeak reports whether the kind alone proves a partial deadlock:
// operations on nil channels and empty selects can never unblock.
func (k Kind) GuaranteedLeak() bool {
	switch k {
	case KindChanSendNil, KindChanReceiveNil, KindSelectNoCases:
		return true
	}
	return false
}

// Kind classifies the goroutine by its runtime state string, refined by the
// leaf runtime frames exactly as Fig 4 of the paper describes: a blocked
// goroutine parks in runtime.gopark and the frame beneath it
// (runtime.chansend, runtime.chanrecv, runtime.selectgo, ...) names the
// operation.
func (g *Goroutine) Kind() Kind {
	state := g.State
	// Strip parentheticals for the switch, but remember them.
	nilChan := strings.Contains(state, "(nil chan)")
	noCases := strings.Contains(state, "(no cases)")
	if i := strings.IndexByte(state, '('); i > 0 {
		state = strings.TrimSpace(state[:i])
	}
	switch state {
	case "running", "runnable":
		return KindRunning
	case "chan send":
		if nilChan {
			return KindChanSendNil
		}
		return KindChanSend
	case "chan receive":
		if nilChan {
			return KindChanReceiveNil
		}
		return KindChanReceive
	case "select":
		if noCases {
			return KindSelectNoCases
		}
		return KindSelect
	case "IO wait":
		return KindIOWait
	case "syscall":
		return KindSyscall
	case "sleep":
		return KindSleep
	case "sync.Cond.Wait":
		return KindCondWait
	case "semacquire", "sync.Mutex.Lock", "sync.RWMutex.RLock",
		"sync.RWMutex.Lock", "sync.WaitGroup.Wait":
		return KindSemacquire
	case "timer goroutine":
		return KindTimer
	case "GC assist wait", "GC sweep wait", "GC scavenge wait",
		"force gc", "GC worker", "GC assist marking":
		return KindGC
	case "finalizer wait":
		return KindFinalizer
	}
	// Fall back to frame inspection for states the header did not settle:
	// a goroutine captured between state transitions can report "waiting"
	// with the operation only visible in the stack.
	return classifyByFrames(g.Frames)
}

// classifyByFrames inspects the runtime frames under runtime.gopark, the
// stack signature described in Section V-A / Fig 4 of the paper.
func classifyByFrames(frames []Frame) Kind {
	for _, f := range frames {
		if !isRuntimeFrame(f.Function) {
			break
		}
		switch f.Function {
		case "runtime.chansend", "runtime.chansend1":
			return KindChanSend
		case "runtime.chanrecv", "runtime.chanrecv1", "runtime.chanrecv2":
			return KindChanReceive
		case "runtime.selectgo":
			return KindSelect
		case "runtime.block":
			return KindSelectNoCases
		case "runtime.netpollblock":
			return KindIOWait
		case "runtime.timeSleep":
			return KindSleep
		case "runtime.semacquire", "runtime.semacquire1":
			return KindSemacquire
		}
	}
	return KindUnknown
}

// BlockedOp describes a channel operation a goroutine is blocked on, in the
// form LEAKPROF aggregates: the operation family plus the source location of
// the first non-runtime frame (the frame that invoked runtime.chansend1 and
// friends).
type BlockedOp struct {
	// Op is "send", "receive", or "select".
	Op string
	// Location is the file:line of the blocked operation.
	Location string
	// Function is the fully qualified name of the blocking function.
	Function string
	// NilChannel marks operations on nil channels.
	NilChannel bool
	// WaitTime is the runtime-reported blocking duration, if any.
	WaitTime int64 // nanoseconds; avoids importing time here twice
}

// BlockedChannelOp extracts the blocked channel operation from the
// goroutine, or ok=false when the goroutine is not blocked on a channel.
func (g *Goroutine) BlockedChannelOp() (BlockedOp, bool) {
	return g.blockedOp(Frame.SourceLocation)
}

// blockedOp is BlockedChannelOp with the leaf's location rendered by loc.
func (g *Goroutine) blockedOp(loc func(Frame) string) (BlockedOp, bool) {
	k := g.Kind()
	op := k.ChannelOp()
	if op == "" {
		return BlockedOp{}, false
	}
	leaf := g.Leaf()
	return BlockedOp{
		Op:         op,
		Location:   loc(leaf),
		Function:   leaf.Function,
		NilChannel: k == KindChanSendNil || k == KindChanReceiveNil,
		WaitTime:   int64(g.WaitTime),
	}, true
}
