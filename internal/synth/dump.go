package synth

import (
	"math/rand"
	"strings"

	"repro/internal/patterns"
	"repro/internal/stack"
)

// DumpConfig sizes a synthetic debug=2 goroutine dump: the profile a
// large leaking production instance would serve. The shape mirrors what
// LEAKPROF collects — a benign background population drawn from the
// Table-IV state mix plus a few massive clusters of identical blocked
// stacks, one per injected leak site.
type DumpConfig struct {
	// Benign is the healthy background goroutine count.
	Benign int
	// LeakClusters is the number of distinct leak sites.
	LeakClusters int
	// ClusterSize is the blocked-goroutine count per site.
	ClusterSize int
	// Seed drives the benign-state mix.
	Seed int64
}

// Goroutines returns the total goroutine count the dump will contain.
func (c DumpConfig) Goroutines() int {
	return c.Benign + c.LeakClusters*c.ClusterSize
}

// Dump renders the synthetic profile in the runtime's debug=2 text
// encoding, for exercising the parse/scan/aggregate pipeline on
// production-shaped input. Each leak member carries one frame, the
// blocking call.
func Dump(cfg DumpConfig) string { return render(cfg, false) }

// PullDump is Dump with each leak member in the shape a live service's
// dump carries: the two runtime frames above the blocking call
// (runtime.gopark and the channel operation's entry point) and two
// request-handling frames below it.
func PullDump(cfg DumpConfig) string { return render(cfg, true) }

func render(cfg DumpConfig, deep bool) string {
	pats := []*patterns.Pattern{
		patterns.TimeoutLeak, patterns.NCast, patterns.PrematureReturn,
		patterns.ContractDone, patterns.UnclosedRange,
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	b.WriteString(stack.Format(patterns.BenignStacks(r, 1, cfg.Benign)))
	id := int64(cfg.Benign + 1)
	for c := 0; c < cfg.LeakClusters; c++ {
		p := pats[c%len(pats)]
		gs := p.Stacks(id, cfg.ClusterSize)
		patterns.Relocate(gs, dumpLeakFile(c), 40+c)
		if deep {
			for _, g := range gs {
				g.Frames = append([]stack.Frame{
					{Function: "runtime.gopark", File: "/usr/local/go/src/runtime/proc.go", Line: 425, Offset: 0xce},
					{Function: runtimeEntry(p.Kind), File: "/usr/local/go/src/runtime/chan.go", Line: 161, Offset: 0x25},
				}, g.Frames...)
				g.Frames = append(g.Frames,
					stack.Frame{Function: "services/svc.(*Server).handle", File: "services/svc/server.go", Line: 120, Offset: 0x1a5},
					stack.Frame{Function: "net/http.HandlerFunc.ServeHTTP", File: "/usr/local/go/src/net/http/server.go", Line: 2220, Offset: 0x29})
			}
		}
		id += int64(cfg.ClusterSize)
		b.WriteByte('\n')
		b.WriteString(stack.Format(gs))
	}
	return b.String()
}

// runtimeEntry names the runtime function a goroutine blocked in k's
// channel operation sits in, under runtime.gopark.
func runtimeEntry(k stack.Kind) string {
	switch k.ChannelOp() {
	case "send":
		return "runtime.chansend1"
	case "receive":
		return "runtime.chanrecv1"
	}
	return "runtime.selectgo"
}

// dumpLeakFile names cluster c's source file, the location LEAKPROF
// groups on.
func dumpLeakFile(c int) string {
	return "services/svc" + string(rune('a'+c%26)) + "/handler.go"
}
