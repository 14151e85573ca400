package leakprof

import (
	"compress/gzip"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gprofile"
)

// Always-on streaming ingestion. The pull plane (StaticEndpoints, the paper's
// daily sweep) fans a fetch out to every instance, so fleet growth
// multiplies per-sweep fan-out and peak collection latency. The push
// plane inverts it: instances POST their own debug=2 dumps to an
// IngestServer whenever they like (on a timer, on a deploy, on an SLO
// breach), each body streams through the stack scanner on arrival, and
// the compact per-location snapshot folds into clock-driven tumbling
// windows. When a window closes, the server emits one normal Sweep
// through the owning Pipeline — ReportSink dedup, TrendSink verdicts,
// ArchiveSink manifests, and the StateStore journal all run unchanged,
// one delta frame per window. No dump is ever buffered whole: peak
// memory is O(queue x distinct blocked locations), independent of fleet
// size and dump size.

// DefaultIngestQueue bounds the admission queue (in-flight scans plus
// scanned-but-unfolded snapshots) when IngestQueue is unset.
const DefaultIngestQueue = 1024

// drainGrace bounds how long a shutting-down window waits for scans
// still in flight, so a stalled client cannot pin shutdown; dumps
// already queued fold whatever the bound, and a scan that lands after
// it is refused. The wait ends as soon as no admission slot is held, so
// an idle server exits at once.
const drainGrace = 2 * time.Second

// ErrIngestOverflow is the admission failure recorded for each dump
// rejected with 429 because the ingest queue was full. The rejections
// are credited to the window that closes next, per service, so the
// existing error accounting (Sweep.FailedByService, journaled budget
// seeds) sees push-plane loss exactly as it sees pull-plane fetch
// failures.
var ErrIngestOverflow = errors.New("leakprof: ingest queue full")

// ErrIngestQuota is the admission failure recorded for each dump
// rejected with 429 because its service exceeded the per-service
// admission quota (IngestServiceQuota). Distinct from ErrIngestOverflow
// so the window accounting separates one noisy service from global
// pressure.
var ErrIngestQuota = errors.New("leakprof: per-service ingest quota exceeded")

// gzipReaderPool recycles gzip inflate state across POSTed bodies. A
// gzip.Reader holds a ~32KiB sliding window plus Huffman tables;
// resetting one onto the next request's body is dramatically cheaper
// than rebuilding that state per request on the hot ingest path.
var gzipReaderPool sync.Pool

// pooledGzipReader returns a gzip.Reader positioned over r, reusing
// pooled inflate state when available.
func pooledGzipReader(r io.Reader) (*gzip.Reader, error) {
	if zr, ok := gzipReaderPool.Get().(*gzip.Reader); ok {
		if err := zr.Reset(r); err != nil {
			gzipReaderPool.Put(zr)
			return nil, err
		}
		return zr, nil
	}
	return gzip.NewReader(r)
}

// putGzipReader retires zr to the pool. Close only checks the trailing
// CRC — it does not invalidate the reader for a future Reset — so even
// readers from failed scans are safe to recycle.
func putGzipReader(zr *gzip.Reader) {
	zr.Close()
	gzipReaderPool.Put(zr)
}

// IngestServer is the push-ingestion endpoint: an http.Handler
// accepting POSTed goroutine-profile dump bodies (?debug=2 text, plain
// or gzip Content-Encoding), and a Run loop folding admissions into
// windowed sweeps on the owning pipeline.
//
//	pipe := leakprof.New(leakprof.WithWindow(time.Minute), leakprof.WithStateDir(dir))
//	pipe.AddSinks(&leakprof.ReportSink{Reporter: rep})
//	srv := leakprof.NewIngestServer(pipe)
//	go http.ListenAndServe(addr, srv)   // instances POST here
//	srv.Run(ctx)                        // one Sweep per closed window
//
// Requests carry the profile's origin as ?service= and ?instance=
// query parameters (or X-Leakprof-Service / X-Leakprof-Instance
// headers). Admission is bounded: once IngestQueue dumps are in flight
// or queued, further POSTs are rejected with 429 and a Retry-After
// hint instead of buffering — admitted dumps keep folding, rejected
// ones are counted against their service in the closing window. An
// optional per-service quota (IngestServiceQuota) bounds any one
// service's share of those slots the same way. Each admitted body gets
// gprofile.ScanSnapshot's verdict, as a pulled body does: its error, if
// any, is recorded in the closing window's failure accounting, and its
// snapshot, if any, is queued (202). A body with no snapshot — a failed
// read, or a non-empty body holding no goroutine member — is a 400 and
// counts in ScanErrors; a salvaged body (malformed members skipped) is
// admitted with its salvage failure.
//
// The window loop folds queued snapshots into the sweep's aggregator
// itself, one at a time, checking the deadline after each fold and when
// the window's deadline timer fires, so a closing window has no fold in
// flight and every sweep observes a consistent fold frontier.
type IngestServer struct {
	pipe  *Pipeline
	queue chan *gprofile.Snapshot // admitted, scanned dumps awaiting a fold
	slots chan struct{}           // admission bound: in-flight scans + queued snapshots
	ticks <-chan time.Time

	// quota is the per-service admission bound (0 = unlimited).
	quota int

	// token, when non-empty, is the shared secret every POST must carry
	// in X-Leakprof-Token; mismatches are 401s counted in AuthRejected.
	token string

	// retryAfter is the 429 Retry-After hint in seconds: half a window,
	// when the queue has likely drained.
	retryAfter string

	// pending counts admission failures (429s, scan failures, salvage)
	// for the next window close, through the sweep failure ledger.
	// inflight counts each service's admissions holding a slot under
	// the quota, from before the slot is taken until the dump folds or
	// its request fails; a service leaves it when its count returns to
	// zero, so client-chosen names cannot grow it. drained is set once
	// the shutdown drain has stopped waiting for scans: from then on no
	// scanned dump is queued. mu guards all three.
	mu       sync.Mutex
	pending  *Sweep
	inflight map[string]int
	drained  bool

	// closeStart marks when the current window began closing, for the
	// window-close pause statistic (real time, not the pipeline clock:
	// it measures this process's fold unavailability).
	closeStart atomic.Int64

	closed       atomic.Bool
	authRejects  atomic.Uint64
	admitted     atomic.Uint64
	folded       atomic.Uint64
	rejects      atomic.Uint64
	quotaRejects atomic.Uint64
	scanFails    atomic.Uint64
	windows      atomic.Uint64
	pauseNS      atomic.Int64
}

// IngestOption tunes an IngestServer.
type IngestOption func(*IngestServer)

// IngestQueue bounds admission: at most n dumps may be in flight
// (scanning) or scanned-and-queued at once; POSTs beyond the bound get
// 429. Default DefaultIngestQueue.
func IngestQueue(n int) IngestOption {
	return func(s *IngestServer) {
		if n > 0 {
			s.queue = make(chan *gprofile.Snapshot, n)
			s.slots = make(chan struct{}, n)
		}
	}
}

// IngestServiceQuota bounds any single service to n concurrently held
// admission slots (in-flight scans plus queued snapshots). POSTs beyond
// the quota get 429 with the same Retry-After hint, recorded as
// ErrIngestQuota against the service in the closing window — so one
// misbehaving fleet saturating its own quota cannot crowd every other
// service out of the shared queue. 0 (the default) disables the quota.
func IngestServiceQuota(n int) IngestOption {
	return func(s *IngestServer) {
		if n > 0 {
			s.quota = n
		}
	}
}

// IngestAuthToken requires every POST to carry tok in an
// X-Leakprof-Token header. The ingest path otherwise trusts the
// ?service= claim, so any client can charge an arbitrary service's
// quota and failure accounting; a shared secret closes that to holders
// of the fleet's token. Comparison is constant-time; a mismatch is a
// 401 counted in IngestStats.AuthRejected and deliberately NOT charged
// to the claimed service — an unauthenticated claim is untrusted, and
// charging it would let outsiders burn a service's error budget.
// Empty tok (the default) disables the check.
func IngestAuthToken(tok string) IngestOption {
	return func(s *IngestServer) { s.token = tok }
}

// IngestTicks overrides the window wake-up channel — the test seam that
// makes window closing deterministic under a fake pipeline clock. Each
// receive re-evaluates the window deadline against the pipeline clock;
// without arrivals or ticks a window never closes. Unset, each window
// wakes on a timer armed for its deadline.
func IngestTicks(ticks <-chan time.Time) IngestOption {
	return func(s *IngestServer) { s.ticks = ticks }
}

// NewIngestServer builds the push endpoint over pipe. The pipeline's
// options govern ingestion the way they govern pull sweeps: WithWindow
// paces window closes on the pipeline clock, WithMaxProfileBytes bounds
// one POSTed body, and WithThreshold/WithRanking/sinks/state shape every
// emitted Sweep.
func NewIngestServer(pipe *Pipeline, opts ...IngestOption) *IngestServer {
	s := &IngestServer{
		pipe:     pipe,
		queue:    make(chan *gprofile.Snapshot, DefaultIngestQueue),
		slots:    make(chan struct{}, DefaultIngestQueue),
		pending:  &Sweep{},
		inflight: make(map[string]int),
	}
	retry := int(pipe.cfg.window().Seconds() / 2)
	if retry < 1 {
		retry = 1
	}
	s.retryAfter = strconv.Itoa(retry)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// chargeService reserves one unit of the service's admission quota.
func (s *IngestServer) chargeService(service string) bool {
	if s.quota <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[service] >= s.quota {
		return false
	}
	s.inflight[service]++
	return true
}

// releaseService returns one unit of the service's admission quota,
// forgetting the service once it holds none.
func (s *IngestServer) releaseService(service string) {
	if s.quota <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.inflight[service] - 1; n > 0 {
		s.inflight[service] = n
	} else {
		delete(s.inflight, service)
	}
}

// releaseAdmission undoes one full admission (queue slot plus service
// quota) for a request that failed after being admitted.
func (s *IngestServer) releaseAdmission(service string) {
	<-s.slots
	s.releaseService(service)
}

// ServeHTTP admits one POSTed dump: charge the service quota, reserve a
// queue slot (429 + Retry-After when either is exhausted), stream the
// body through the scanner, and queue the compact snapshot for the
// current window. 202 on admission; the fold itself is asynchronous.
func (s *IngestServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a goroutine-profile dump body (?debug=2 text)", http.StatusMethodNotAllowed)
		return
	}
	if s.closed.Load() {
		http.Error(w, "ingest server draining", http.StatusServiceUnavailable)
		return
	}
	if s.token != "" &&
		subtle.ConstantTimeCompare([]byte(r.Header.Get("X-Leakprof-Token")), []byte(s.token)) != 1 {
		s.authRejects.Add(1)
		http.Error(w, "missing or invalid X-Leakprof-Token", http.StatusUnauthorized)
		return
	}
	service := firstOf(r.URL.Query().Get("service"), r.Header.Get("X-Leakprof-Service"))
	if service == "" {
		http.Error(w, "missing service (?service= or X-Leakprof-Service)", http.StatusBadRequest)
		return
	}
	instance := firstOf(r.URL.Query().Get("instance"), r.Header.Get("X-Leakprof-Instance"))
	if instance == "" {
		instance = r.RemoteAddr
	}

	// Admission control comes before the body is read: a full queue (or
	// an exhausted service quota) must shed load at the door, not after
	// paying for a scan.
	if !s.chargeService(service) {
		s.quotaRejects.Add(1)
		s.fail(service, instance, ErrIngestQuota)
		w.Header().Set("Retry-After", s.retryAfter)
		http.Error(w, ErrIngestQuota.Error(), http.StatusTooManyRequests)
		return
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.releaseService(service)
		s.rejects.Add(1)
		s.fail(service, instance, ErrIngestOverflow)
		w.Header().Set("Retry-After", s.retryAfter)
		http.Error(w, ErrIngestOverflow.Error(), http.StatusTooManyRequests)
		return
	}
	// The shutdown drain may have begun since the check above: a slot
	// taken after it began is refused before its scan is paid for.
	if s.closed.Load() {
		s.releaseAdmission(service)
		http.Error(w, "ingest server draining", http.StatusServiceUnavailable)
		return
	}

	body := io.Reader(r.Body)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := pooledGzipReader(body)
		if err != nil {
			s.releaseAdmission(service)
			s.scanFails.Add(1)
			s.fail(service, instance, fmt.Errorf("leakprof: ingest %s/%s: bad gzip body: %w", service, instance, err))
			http.Error(w, "bad gzip body: "+err.Error(), http.StatusBadRequest)
			return
		}
		defer putGzipReader(zr)
		body = zr
	}
	// Stream straight through the scanner — the dump is never
	// materialised.
	snap, err := scanBounded(&s.pipe.cfg, service, instance, body)
	if err != nil {
		s.fail(service, instance, err)
	}
	if snap == nil {
		s.releaseAdmission(service)
		s.scanFails.Add(1)
		code := http.StatusBadRequest
		if errors.Is(err, errOverLimit) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	// Queue under mu, where the drain sets drained: it folds every dump
	// queued before the flag, and no dump after it.
	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		s.releaseAdmission(service)
		http.Error(w, "ingest server draining", http.StatusServiceUnavailable)
		return
	}
	s.queue <- snap // cannot block: a slot is held
	s.admitted.Add(1)
	s.mu.Unlock()
	w.WriteHeader(http.StatusAccepted)
}

func firstOf(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}

// fail counts one admission failure against the window that closes
// next.
func (s *IngestServer) fail(service, instance string, err error) {
	s.mu.Lock()
	s.pending.fail(service, instance, err)
	s.mu.Unlock()
}

// flushAccounting hands the failures counted since the previous window
// close to env as a report with no moments, so admission loss feeds
// Sweep.FailedByService and, through the journal, the next sweep's
// error budgets exactly as pull-plane fetch failures do. The shutdown
// drain's flush also sets drained, in the same critical section, so
// every failure counted for a dump it folds is in the flush.
func (s *IngestServer) flushAccounting(env *SweepEnv, drained bool) {
	s.mu.Lock()
	p := s.pending
	s.pending = &Sweep{}
	s.drained = drained
	s.mu.Unlock()
	env.MergeReport(&ShardReport{Errors: p.Errors, FailedByService: p.FailedByService, Failures: p.Failures})
}

// Run is the window loop: it folds admitted dumps into tumbling windows
// paced by the pipeline clock and emits one normal Sweep per closed
// window until ctx is cancelled. Cancellation is the drain barrier:
// admission stops (further POSTs get 503), everything already queued is
// folded into one final partial-window sweep — delivered to sinks and
// journal like any other — after scans still in flight get drainGrace
// to land (one that lands later gets 503), and Run returns. A window
// whose Sweep fails (a sink's SweepDone, the journal append) does not
// stop the loop; Run returns ctx's error itself when every window
// succeeded, and otherwise an error wrapping both ctx's error and the
// first failed window's, with the count of failed windows. Callers
// still own Pipeline.Close for deferred fsync windows, exactly as after
// pull sweeps.
func (s *IngestServer) Run(ctx context.Context) error {
	var windows, failed int
	var first error
	sweep := func() {
		if _, err := s.pipe.Sweep(ctx, ingestWindow{s}); err != nil {
			if failed == 0 {
				first = err
			}
			failed++
		}
		windows++
		s.windows.Add(1)
	}
	// Every stop ends in exactly one drain window: a window that closed
	// normally after the cancel still left its late arrivals queued and,
	// if its sinks were running, admission failures counted meanwhile;
	// the next window drains and accounts for both.
	for !s.closed.Load() {
		if start := s.closeStart.Swap(0); start != 0 {
			s.pauseNS.Add(int64(time.Since(time.Unix(0, start))))
		}
		sweep()
	}
	if failed == 0 {
		return ctx.Err()
	}
	return fmt.Errorf("%w (%d of %d ingest windows failed; the first: %w)", ctx.Err(), failed, windows, first)
}

// fold folds one queued snapshot into the window's sweep and frees its
// admission slot and service quota.
func (s *IngestServer) fold(env *SweepEnv, snap *gprofile.Snapshot) {
	<-s.slots
	env.Emit(snap)
	s.releaseService(snap.Service)
	s.folded.Add(1)
}

// ingestWindow is the Source one window sweep drains: the window loop
// folds queued snapshots until the pipeline clock crosses the window
// deadline, checked after every fold and every wake-up (a tick, or the
// window's deadline timer), then returns — closing the window — leaving
// later arrivals queued for the next window. Context cancellation drains
// whatever is already queued (the shutdown barrier) and returns.
type ingestWindow struct{ s *IngestServer }

func (ingestWindow) Name() string { return "ingest" }

func (w ingestWindow) Sweep(ctx context.Context, env *SweepEnv) error {
	s := w.s
	deadline := env.Config.now().Add(env.Config.window())
	var timer *time.Timer
	wake := s.ticks
	if wake == nil {
		timer = time.NewTimer(env.Config.window())
		defer timer.Stop()
		wake = timer.C
	}
	for {
		select {
		case snap := <-s.queue:
			s.fold(env, snap)
		case <-wake:
			if timer != nil {
				// The pipeline clock may lag the wall clock: wait out the rest.
				timer.Reset(deadline.Sub(env.Config.now()))
			}
		case <-ctx.Done():
			// Shutdown: stop admitting, then fold everything already
			// admitted so no accepted dump is lost. A held slot without a
			// queued item is a scan still in flight — wait for it to land
			// (or fail, releasing the slot), for at most drainGrace. Then
			// set drained, which refuses a scan that lands later, and fold
			// what is queued however long it takes: that is local work,
			// bounded by the queue.
			s.closed.Store(true)
			giveUp := time.After(drainGrace)
			poll := time.NewTicker(time.Millisecond)
			defer poll.Stop()
			for waiting := true; waiting && len(s.slots) > 0; {
				select {
				case snap := <-s.queue:
					s.fold(env, snap)
				case <-poll.C:
				case <-giveUp:
					waiting = false
				}
			}
			s.flushAccounting(env, true)
			for len(s.queue) > 0 {
				s.fold(env, <-s.queue)
			}
			return nil
		}
		if !env.Config.now().Before(deadline) {
			s.closeStart.Store(time.Now().UnixNano())
			s.flushAccounting(env, false)
			return nil
		}
	}
}

// IngestStats is a point-in-time snapshot of the server's counters.
type IngestStats struct {
	// Admitted counts dumps accepted (202) and queued; Folded counts
	// those already folded into a window's aggregator.
	Admitted, Folded uint64
	// Rejected counts queue-full 429s; QuotaRejected counts per-service
	// quota 429s; ScanErrors counts bodies refused with no snapshot: a
	// bad gzip stream, a failed read, a non-empty body holding no
	// goroutine member, or one over the byte limit.
	Rejected, QuotaRejected, ScanErrors uint64
	// AuthRejected counts POSTs refused with 401 for a missing or wrong
	// X-Leakprof-Token (IngestAuthToken). Not charged to any service:
	// the service claim of an unauthenticated request is untrusted.
	AuthRejected uint64
	// Windows counts closed windows (sweeps emitted).
	Windows uint64
	// QueueLen is the current number of scanned-but-unfolded snapshots.
	QueueLen int
	// WindowPause is the cumulative real time the fold loop spent
	// between closing one window (sink handoff, journal append) and
	// draining the next. Admission continues during the pause — only
	// folding waits.
	WindowPause time.Duration
}

// Stats returns current counters; safe for concurrent use.
func (s *IngestServer) Stats() IngestStats {
	return IngestStats{
		Admitted:      s.admitted.Load(),
		Folded:        s.folded.Load(),
		Rejected:      s.rejects.Load(),
		QuotaRejected: s.quotaRejects.Load(),
		ScanErrors:    s.scanFails.Load(),
		AuthRejected:  s.authRejects.Load(),
		Windows:       s.windows.Load(),
		QueueLen:      len(s.queue),
		WindowPause:   time.Duration(s.pauseNS.Load()),
	}
}
