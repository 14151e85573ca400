package leakprof

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// BenchmarkStreamingIngest is the push-plane throughput claim: each
// iteration is one storm of 1000 concurrent posters POSTing four dumps
// apiece straight at the handler. Memory stays bounded by the admission
// queue (in-flight scans plus scanned-but-unfolded compact snapshots),
// never O(fleet x dump): the storm is 4000 dumps against a 4096-slot
// queue while the window loop folds concurrently. Reported alongside
// ns/op:
//
//	dumps/sec      admitted-and-folded throughput over storm wall time
//	p99-admit-us   99th-percentile handler latency (scan + enqueue)
//	window-pause-us  mean fold-loop pause per window close (sink
//	                 handoff + journal append; admission keeps running)
func BenchmarkStreamingIngest(b *testing.B) {
	const (
		posters   = 1000
		perPoster = 4
	)
	rng := rand.New(rand.NewSource(7))
	var bodies [][]byte
	for i := 0; i < 64; i++ {
		snap := randomSweep(rng)[0]
		// Re-stamp origin so the 64 bodies spread over a stable set of
		// services and instances regardless of what randomSweep chose.
		snap.Service = "svc" + strconv.Itoa(i%8)
		snap.Instance = "i" + strconv.Itoa(i)
		bodies = append(bodies, renderDump(b, snap))
	}

	pipe := New(WithThreshold(500), WithWindow(20*time.Millisecond))
	srv := NewIngestServer(pipe, IngestQueue(4096))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	latencies := make([]int64, 0, b.N*posters*perPoster)
	perPosterLat := make([][]int64, posters)
	b.ReportAllocs()
	b.ResetTimer()
	stormStart := time.Now()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for p := 0; p < posters; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				lats := perPosterLat[p][:0]
				for k := 0; k < perPoster; k++ {
					body := bodies[(p*perPoster+k)%len(bodies)]
					req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
					req.Header.Set("X-Leakprof-Service", "svc"+strconv.Itoa(p%8))
					req.Header.Set("X-Leakprof-Instance", "p"+strconv.Itoa(p))
					rec := httptest.NewRecorder()
					start := time.Now()
					srv.ServeHTTP(rec, req)
					lats = append(lats, int64(time.Since(start)))
					if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
						b.Errorf("POST: got %d: %s", rec.Code, rec.Body)
						return
					}
				}
				perPosterLat[p] = lats
			}(p)
		}
		wg.Wait()
		for p := range perPosterLat {
			latencies = append(latencies, perPosterLat[p]...)
		}
	}
	stormWall := time.Since(stormStart)
	b.StopTimer()
	cancel()
	<-runDone

	st := srv.Stats()
	if st.Folded != st.Admitted {
		b.Fatalf("drain lost dumps: folded %d of %d admitted", st.Folded, st.Admitted)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	b.ReportMetric(float64(st.Folded)/stormWall.Seconds(), "dumps/sec")
	b.ReportMetric(float64(p99)/1e3, "p99-admit-us")
	if st.Windows > 0 {
		b.ReportMetric(float64(st.WindowPause)/float64(st.Windows)/1e3, "window-pause-us")
	}
	if st.Rejected > 0 {
		b.ReportMetric(float64(st.Rejected)/float64(st.Admitted+st.Rejected), "reject-frac")
	}
}
