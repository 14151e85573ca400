// Package chaos is a composable fault-injection layer for the fleet
// simulator: it wraps the pull path (per-instance profile endpoints)
// and the push path (ingest POSTers) with independently seeded,
// combinable faults — slow and hung endpoints, flapping instances,
// torn and malformed dump bodies, corrupt gzip streams, rolling deploys
// mid-sweep — so the retry, error-budget, salvage, and backpressure
// machinery faces a coordinated adversarial workload instead of the
// well-behaved seed scenarios.
//
// Every fault decision is a pure hash of (seed, fault kind, instance,
// attempt counter): which instance misbehaves on which attempt is fully
// determined by the scenario seed, never by goroutine scheduling, so a
// failing scenario replays identically under -race, under -count=100,
// and in CI. Faults compose freely — one request can be slow AND serve
// a torn body — because each kind rolls its own independent hash.
//
// One runner (runner.go) drives a fleet through each delivery mode:
// batch pull, sharded pull with reports handed off through files or an
// HTTP ShardInbox, and push ingestion, every mode reading the same dump
// bytes. The scenario matrix (Run) and the mode-parity tests use it.
package chaos

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// Faults configures one injector's fault mix. Zero values disable each
// fault; probabilities are per-request (pull path) or per-post (push
// path), rolled independently per fault kind.
type Faults struct {
	// SlowProb delays a fetch by SlowFor before responding — latency
	// the sweep's parallelism must absorb and, when SlowFor exceeds the
	// pipeline timeout, a timeout the retry policy must survive.
	SlowProb float64
	SlowFor  time.Duration

	// HangProb wedges the handler until the client gives up (the
	// request context is cancelled) — the hard version of slow: only
	// the pipeline's per-endpoint timeout unsticks the sweep.
	HangProb float64

	// FlapProb fails the request outright with 503, the flapping
	// instance mid-restart; a later attempt (retry) may find it up.
	FlapProb float64

	// TornProb truncates the rendered dump body to TornFrac of its
	// bytes — a connection cut mid-transfer. The scanner treats a dump
	// that simply ends as complete, so torn bodies silently undercount;
	// detection must survive on the instances that answered whole.
	TornProb float64
	// TornFrac is the fraction of the body kept (default 0.5).
	TornFrac float64

	// MalformProb corrupts every MalformEvery-th goroutine header in
	// the body — line noise in the dump text. The scanner resyncs past
	// each corrupt member and counts it in Malformed(), surfacing as an
	// ErrSalvaged failure in the sweep's error accounting.
	MalformProb float64
	// MalformEvery picks which members are corrupted (default 2).
	MalformEvery int

	// DeployAfter triggers the injector's OnDeploy hook exactly once,
	// when the DeployAfter-th request (across all instances) arrives —
	// the deterministic mid-sweep point for a rolling deploy.
	DeployAfter int
}

func (f Faults) tornFrac() float64 {
	if f.TornFrac <= 0 || f.TornFrac >= 1 {
		return 0.5
	}
	return f.TornFrac
}

func (f Faults) malformEvery() int {
	if f.MalformEvery < 1 {
		return 2
	}
	return f.MalformEvery
}

// Injector applies a Faults mix to wrapped handlers. One injector
// serves a whole fleet; per-instance attempt counters keep decisions
// independent of fetch interleaving.
type Injector struct {
	// Seed drives every fault decision; two injectors with the same
	// seed and faults misbehave identically.
	Seed int64
	// Faults is the fault mix.
	Faults Faults
	// OnDeploy fires once when the DeployAfter-th request arrives
	// (typically fleet.DeployRolling — the mid-sweep version skew).
	OnDeploy func()

	requests atomic.Uint64
	counters sync.Map // instance name -> *atomic.Uint64

	slowed    atomic.Uint64
	hung      atomic.Uint64
	flapped   atomic.Uint64
	torn      atomic.Uint64
	malformed atomic.Uint64
	deploys   atomic.Uint64
}

// Stats is a point-in-time count of faults actually fired.
type Stats struct {
	Requests, Slowed, Hung, Flapped, Torn, Malformed, Deploys uint64
}

// Stats returns the injector's fired-fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Requests:  inj.requests.Load(),
		Slowed:    inj.slowed.Load(),
		Hung:      inj.hung.Load(),
		Flapped:   inj.flapped.Load(),
		Torn:      inj.torn.Load(),
		Malformed: inj.malformed.Load(),
		Deploys:   inj.deploys.Load(),
	}
}

// Fired sums every fault the injector actually applied.
func (s Stats) Fired() uint64 {
	return s.Slowed + s.Hung + s.Flapped + s.Torn + s.Malformed + s.Deploys
}

// Roll returns the deterministic uniform [0, 1) draw for one fault
// decision: seed × kind × key × attempt. Exposed so push-path callers
// (posters corrupting their own bodies) draw from the same sequence the
// pull-path wrapper uses.
func (inj *Injector) Roll(kind, key string, n uint64) float64 {
	return hash01(inj.Seed, kind, key, n)
}

func hash01(seed int64, kind, key string, n uint64) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	io.WriteString(h, kind)
	h.Write([]byte{0})
	io.WriteString(h, key)
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(b[:], n)
	h.Write(b[:])
	// Top 53 bits -> [0, 1) with full double precision.
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Hash01 is the package-level deterministic draw, for callers that
// roll fault decisions without an Injector (push-path scenarios).
func Hash01(seed int64, kind, key string, n uint64) float64 {
	return hash01(seed, kind, key, n)
}

// attempt returns this instance's next 1-based request ordinal.
// Per-endpoint fetches are sequential (retries included), so the
// ordinal — and with it every fault decision — is independent of how
// the sweep interleaves instances.
func (inj *Injector) attempt(name string) uint64 {
	v, ok := inj.counters.Load(name)
	if !ok {
		v, _ = inj.counters.LoadOrStore(name, new(atomic.Uint64))
	}
	return v.(*atomic.Uint64).Add(1)
}

// noteRequest counts one request against the global total and fires the
// deploy hook when the configured request arrives. Equality on the
// atomic increment makes the hook exactly-once without a lock.
func (inj *Injector) noteRequest() {
	total := inj.requests.Add(1)
	if inj.Faults.DeployAfter > 0 && total == uint64(inj.Faults.DeployAfter) && inj.OnDeploy != nil {
		inj.deploys.Add(1)
		inj.OnDeploy()
	}
}

// Wrap decorates one instance's profile handler with the injector's
// fault mix — the pull-path seam, shaped for fleet.ServeWith. Faults
// compose in severity order: a flap pre-empts the body, a hang wedges
// until the client's context dies, a slow delays, and body corruption
// (torn, malformed) applies to whatever the honest handler rendered.
func (inj *Injector) Wrap(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inj.noteRequest()
		n := inj.attempt(name)
		ft := inj.Faults
		if ft.FlapProb > 0 && inj.Roll("flap", name, n) < ft.FlapProb {
			inj.flapped.Add(1)
			http.Error(w, "chaos: instance flapping", http.StatusServiceUnavailable)
			return
		}
		if ft.HangProb > 0 && inj.Roll("hang", name, n) < ft.HangProb {
			inj.hung.Add(1)
			<-r.Context().Done()
			return
		}
		if ft.SlowProb > 0 && inj.Roll("slow", name, n) < ft.SlowProb {
			inj.slowed.Add(1)
			select {
			case <-time.After(ft.SlowFor):
			case <-r.Context().Done():
				return
			}
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if ft.TornProb > 0 && inj.Roll("torn", name, n) < ft.TornProb {
			inj.torn.Add(1)
			body = Torn(body, ft.tornFrac())
		}
		if ft.MalformProb > 0 && inj.Roll("malform", name, n) < ft.MalformProb {
			var mutated int
			body, mutated = MalformHeaders(body, ft.malformEvery())
			if mutated > 0 {
				inj.malformed.Add(1)
			}
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// Torn truncates body to keep frac of its bytes — a transfer cut
// mid-frame. The cut lands wherever the byte budget does, typically
// inside a stack frame line; the scanner treats the early end as a
// complete dump, so the damage is a silent undercount, not an error.
func Torn(body []byte, frac float64) []byte {
	if frac <= 0 {
		return nil
	}
	if frac >= 1 {
		return body
	}
	n := int(float64(len(body)) * frac)
	if n >= len(body) {
		n = len(body) - 1
	}
	if n < 0 {
		n = 0
	}
	return body[:n]
}

var (
	headerPrefix = []byte("goroutine ")
	headerSuffix = []byte("]:")
)

// MalformHeaders corrupts every k-th goroutine header in a debug=2 dump
// body — the closing "]" drops, leaving "goroutine N [state:", the
// exact shape the scanner's resync path classifies as a malformed
// member — and returns the mutated body plus how many members were
// corrupted. A scan of the result drops each corrupted member, resyncs
// at the next well-formed header, and reports the losses via
// Malformed().
func MalformHeaders(body []byte, k int) ([]byte, int) {
	if k < 1 {
		k = 1
	}
	var out []byte
	mutated, member := 0, 0
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i+1], body[i+1:]
		} else {
			body = nil
		}
		trimmed := bytes.TrimRight(line, "\r\n")
		if bytes.HasPrefix(trimmed, headerPrefix) && bytes.HasSuffix(trimmed, headerSuffix) {
			member++
			if member%k == 0 {
				// "goroutine 123 [state]:" -> "goroutine 123 [state:".
				out = append(out, trimmed[:len(trimmed)-len(headerSuffix)]...)
				out = append(out, ':', '\n')
				mutated++
				continue
			}
		}
		out = append(out, line...)
	}
	return out, mutated
}

// CorruptGzip flips one byte in the middle of a gzip stream, past the
// header, so inflation starts cleanly and fails mid-body — the push
// path's torn-transfer analogue: the ingest scanner hits a hard read
// error, the POST is a 400, and the failure lands in the closing
// window's accounting.
func CorruptGzip(gz []byte) []byte {
	out := append([]byte(nil), gz...)
	if len(out) > 20 {
		out[len(out)/2] ^= 0xFF
	}
	return out
}
