package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/stack"
	"repro/leakprof"
)

// runMainEnv, set to 1, makes the test binary run the command itself.
const runMainEnv = "LEAKPROF_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns its
// exit status, standard output and standard error.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestExitStatusAfterSweepLevelFailure runs a -dir sweep whose -archive
// write-through fails: the archive's next sweep directory is taken by a
// plain file. The failure must print a warn: line and exit 1; the same
// sweep, with a corrupt profile beside the good one, exits 0 into a
// fresh archive, since a failed instance is not a sweep-level failure.
// So do sweeps whose one profile yields no finding: a channel-blocked
// member with no frame to locate it, and a file holding no dump.
func TestExitStatusAfterSweepLevelFailure(t *testing.T) {
	in := t.TempDir()
	gs := []*stack.Goroutine{{
		ID: 1, State: "chan send",
		Frames: []stack.Frame{{Function: "pay.leak", File: "/pay/leak.go", Line: 12}},
	}}
	if err := os.WriteFile(filepath.Join(in, "pay_i1.txt"), []byte(stack.Format(gs)), 0o644); err != nil {
		t.Fatal(err)
	}
	archive := t.TempDir()
	if err := os.WriteFile(filepath.Join(archive, "sweep-0001"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runMain(t, "-threshold", "1", "-dir", in, "-archive", archive)
	if code != 1 || !strings.Contains(stderr, "warn: ") || !strings.Contains(stderr, "not a directory") {
		t.Errorf("failed write-through: exit %d, stderr %q; want 1 and a warn: line naming the file", code, stderr)
	}

	// A member whose header lost its closing bracket: the profile is
	// salvaged and reported as a failed instance.
	torn := "goroutine 1 [chan send]:\nsvc.before()\n\t/s/b.go:2 +0x1\ngoroutine 99 [chan send:\nsvc.torn()\n"
	if err := os.WriteFile(filepath.Join(in, "pay_i2.txt"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runMain(t, "-threshold", "1", "-dir", in, "-archive", t.TempDir())
	if code != 0 || !strings.Contains(stderr, "warn: archive/pay_i2.txt") {
		t.Errorf("failed instance only: exit %d, stderr %q; want 0 and a warn: line for pay_i2.txt", code, stderr)
	}

	for _, tc := range []struct{ body, stdout, stderr string }{
		{"goroutine 1 [chan send]:\n", "collected 1 profiles", "warn: archive/pay_i1.txt: gprofile: profile salvaged"},
		{"goroutine 1 [chan send]:\n!!!garbage\n", "collected 1 profiles", "warn: archive/pay_i1.txt: gprofile: profile salvaged"},
		{"\x00\x01\x02binary", "collected 0 profiles", "warn: archive/pay_i1.txt: gprofile: pay/i1 holds no goroutine dump"},
	} {
		in := t.TempDir()
		if err := os.WriteFile(filepath.Join(in, "pay_i1.txt"), []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runMain(t, "-threshold", "1", "-dir", in)
		if code != 0 || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stdout, "no new suspicious blocking operations") || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("profile %q: exit %d, stdout %q, stderr %q; want 0, %q and no alert, and %q",
				tc.body, code, stdout, stderr, tc.stdout, tc.stderr)
		}
	}
}

// TestIngestPrintsBoundAddress runs -ingest on port 0: the address it
// prints must be the one it bound, so a dump POSTed there is admitted
// and, after the interrupt, folded and counted in the exit summary.
func TestIngestPrintsBoundAddress(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-ingest", "127.0.0.1:0", "-window", "100ms", "-threshold", "1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A child that never prints or never exits is killed, which ends the
	// reads below.
	defer time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() }).Stop()
	lines := bufio.NewScanner(stderr)
	var addr string
	for addr == "" && lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "ingest: listening on "); ok {
			addr, _, _ = strings.Cut(rest, ",")
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("no \"ingest: listening on\" line on stderr")
	}

	gs := []*stack.Goroutine{{
		ID: 1, State: "chan send",
		Frames: []stack.Frame{{Function: "pay.leak", File: "/pay/leak.go", Line: 12}},
	}}
	resp, err := http.Post("http://"+addr+"/?service=pay&instance=i1", "text/plain", strings.NewReader(stack.Format(gs)))
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("POST to the printed address %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("POST: got %d, want 202", resp.StatusCode)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var rest strings.Builder
	for lines.Scan() {
		rest.WriteString(lines.Text() + "\n")
	}
	cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 0 || !strings.Contains(rest.String(), "1 admitted (1 folded)") {
		t.Errorf("after the interrupt: exit %d, stderr %q; want 0 and \"1 admitted (1 folded)\"", code, rest.String())
	}
}

// TestIngestPrintsAlertsAsWindowsClose drives -ingest mode's sweep
// observer through an IngestServer: the window holding a leak above the
// threshold must print its alert, in the exit summary's Render text,
// while Run is still serving — not after it returns.
func TestIngestPrintsAlertsAsWindowsClose(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	// Each Fprint of an alert arrives as one write; the buffer holds
	// more writes than the test provokes, so the observer never blocks.
	writes := make(chanWriter, 16)
	live := &alertLog{out: writes}
	pipe := leakprof.New(
		leakprof.WithThreshold(10),
		leakprof.WithClock(clock),
		leakprof.WithWindow(time.Minute),
		leakprof.WithOnSweep(live.observe),
	)
	live.sink = &leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: report.NewDB(), Now: clock}}
	pipe.AddSinks(live.sink)
	ticks := make(chan time.Time)
	srv := leakprof.NewIngestServer(pipe, leakprof.IngestTicks(ticks))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	var gs []*stack.Goroutine
	for i := 0; i < 20; i++ {
		gs = append(gs, &stack.Goroutine{
			ID: int64(i + 1), State: "chan send",
			Frames: []stack.Frame{{Function: "pay.leak", File: "/pay/leak.go", Line: 12}},
		})
	}
	req := httptest.NewRequest(http.MethodPost, "/?service=pay&instance=i1", strings.NewReader(stack.Format(gs)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST: got %d, want 202: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Folded != 1 {
		if time.Now().After(deadline) {
			t.Fatal("dump never folded")
		}
		time.Sleep(time.Millisecond)
	}
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	ticks <- time.Time{}

	var got string
	select {
	case got = <-writes:
	case err := <-runDone:
		t.Fatalf("Run returned (%v) before the window's alert printed", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no alert printed after the window closed")
	}
	alerts := live.sink.Alerts()
	if len(alerts) != 1 || got != alerts[0].Render() {
		t.Fatalf("printed %q, want the Render text of the one filed alert %v", got, alerts)
	}
	if !strings.Contains(got, "/pay/leak.go:12") {
		t.Errorf("alert does not name the leak site: %q", got)
	}
	cancel()
	<-runDone
}

// chanWriter hands each Write to the test as one string.
type chanWriter chan string

func (w chanWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}
