package stack

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"
)

// Scanner decodes a stack dump incrementally from an io.Reader, yielding
// one goroutine at a time:
//
//	sc := stack.NewScanner(r)
//	for sc.Scan() {
//		g := sc.Goroutine()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
//
// It accepts exactly the format Parse accepts (runtime.Stack output /
// pprof goroutine profiles at debug=2) and produces identical records,
// but never materialises the whole dump: the line buffer is reused across
// lines, and strings that repeat across goroutines — function names, file
// paths, state annotations — are interned so a profile with thousands of
// identical leaked stacks costs a handful of allocations per goroutine
// instead of a copy of the body. The intern table survives Reset, so a
// scanner reused across dumps (gprofile pools them) allocates a string
// the first time any of its dumps carries it; it is the only interning
// layer. LEAKPROF pays a scan per instance per sweep, where a single
// profile can run to hundreds of megabytes; its collection path runs the
// counting variant, Tally.
//
// Each call to Scan invalidates nothing: yielded Goroutines are freshly
// allocated and owned by the caller (their strings are shared via the
// intern table, which is immutable once published).
//
// Tally is the counting path over the same line state machine, for
// callers that need only each member's blocked operation: header parse,
// resync, the held member and the torn-blank probe run exactly as under
// Scan, so Tally's Malformed and Err match Scan's on every input. Per
// member it keeps only the header fields and the frames through the leaf
// (the first non-runtime frame) — all that Kind and Leaf read. It
// recycles one member record instead of allocating, checks the shape of
// later frame and created-by lines without interning them, and renders
// the leaf's file:line once per distinct location. Nothing it passes to
// fn outlives the call: the member record is reused for the next member,
// and fn gets only values (op's strings are immutable shared copies, safe
// to keep as map keys).
type Scanner struct {
	lines *bufio.Scanner
	buf   []byte // initial line buffer, reused across Reset
	line  int    // 1-based number of the last line read

	cur        *Goroutine // block being accumulated
	g          *Goroutine // last yielded goroutine
	pendingLoc *Frame     // frame awaiting a possible location line
	err        error
	done       bool

	// skipping is the resync state: after a malformed goroutine header
	// the scanner discards lines until the next well-formed header
	// instead of aborting the dump; malformed counts the members lost
	// that way.
	skipping  bool
	malformed int

	// held defers a blank-terminated member's yield by one content line:
	// if the next content is a frame pair instead of a header, the blank
	// was a torn frame line inside the member, and the scanner resyncs by
	// reattaching the orphaned frames instead of silently dropping the
	// member's remaining frames (counted in malformed). probeFrame holds
	// the tentative continuation frame while its location line is awaited.
	held         *Goroutine
	probing      bool
	probeFrame   Frame
	probeCreated bool
	probeCreator int64

	// intern maps string content to its single shared copy.
	intern map[string]string
	// headers caches parsed bracket regions ("chan send, 5 minutes") —
	// the per-goroutine text that repeats across a leaked cluster.
	headers map[string]headerInfo
	// locs caches parsed location lines ("/src/a.go:12 +0x2b").
	locs map[string]Frame

	// counting is set while Tally runs: members are recycled records
	// holding frames only through the leaf. spare is the record the last
	// fn call released. The first Tally makes skip, which absorbs the
	// location line of a frame or created-by line Tally does not keep,
	// and srcs, which caches rendered leaf locations by file and line.
	counting bool
	spare    *Goroutine
	skip     *Frame
	srcs     map[srcKey]string
}

type srcKey struct {
	file string
	line int
}

type headerInfo struct {
	state  string
	wait   time.Duration
	locked bool
	count  int
}

// maxLineBytes bounds a single dump line. Real dump lines are far
// shorter; the limit only guards against unbounded buffering on
// pathological input.
const maxLineBytes = 16 << 20

// maxCacheEntries bounds each of the retained caches (intern, headers,
// locations) across Reset: a scanner cycling through a pool must not
// accumulate every string a pathological fleet ever produced. Real
// fleets repeat the same few hundred functions, paths, and states, so
// the bound is effectively never hit in steady state.
const maxCacheEntries = 8192

// NewScanner returns a Scanner reading a dump from r.
func NewScanner(r io.Reader) *Scanner {
	lines := bufio.NewScanner(r)
	buf := make([]byte, 64<<10)
	lines.Buffer(buf, maxLineBytes)
	return &Scanner{
		lines:   lines,
		buf:     buf,
		intern:  make(map[string]string),
		headers: make(map[string]headerInfo),
		locs:    make(map[string]Frame),
	}
}

// Reset rearms the scanner to read a new dump from r, reusing the line
// buffer and — bounded by maxCacheEntries — the intern, header, and
// location caches. This is the pooling seam for high-rate ingestion:
// a pooled Scanner costs one bufio.Scanner shell per dump instead of a
// 64KiB line buffer plus three warm caches, and strings interned from
// earlier dumps are shared with the next one. All per-dump state (yield
// position, resync and probe state, malformed count, error) is cleared.
func (s *Scanner) Reset(r io.Reader) {
	lines := bufio.NewScanner(r)
	lines.Buffer(s.buf, maxLineBytes)
	s.lines = lines
	s.line = 0
	s.cur, s.g, s.pendingLoc = nil, nil, nil
	s.err = nil
	s.done = false
	s.skipping = false
	s.malformed = 0
	s.held = nil
	s.probing = false
	s.probeFrame = Frame{}
	s.probeCreated = false
	s.probeCreator = 0
	if len(s.intern) > maxCacheEntries {
		s.intern = make(map[string]string)
	}
	if len(s.headers) > maxCacheEntries {
		s.headers = make(map[string]headerInfo)
	}
	if len(s.locs) > maxCacheEntries {
		s.locs = make(map[string]Frame)
	}
	if len(s.srcs) > maxCacheEntries {
		s.srcs = make(map[srcKey]string)
	}
}

// Scan advances to the next goroutine block. It returns false at the end
// of the dump or on a reader failure; Err distinguishes the two. A
// malformed goroutine header does not stop the scan: the scanner drops
// that member, resyncs at the next well-formed header, and counts the
// loss in Malformed.
func (s *Scanner) Scan() bool {
	if s.err != nil || s.done {
		return false
	}
	for s.lines.Scan() {
		s.line++
		line := s.lines.Bytes()
		for len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if s.process(line) {
			return true
		}
		if s.err != nil {
			return false
		}
	}
	s.done = true
	if err := s.lines.Err(); err != nil {
		s.err = fmt.Errorf("stack: line %d: %w", s.line+1, err)
		// A held member completed (blank-terminated) before the reader
		// failed; only the in-flight member is torn by the failure.
		if s.held != nil {
			s.g, s.held = s.held, nil
			return true
		}
		return false
	}
	if s.held != nil {
		s.g, s.held = s.held, nil
		return true
	}
	if s.cur != nil {
		s.g, s.cur = s.cur, nil
		return true
	}
	return false
}

// Goroutine returns the goroutine yielded by the last successful Scan.
func (s *Scanner) Goroutine() *Goroutine { return s.g }

// Tally scans the rest of the dump as Scan would and calls fn once per
// member, in dump order, with the member's blocked channel operation
// (BlockedChannelOp; blocked is false, and op zero, when the member is
// not blocked on a channel) and its Multiplicity. It is the collection
// path's counting scan: see the Scanner doc for what it keeps. Err and
// Malformed report on the dump afterwards, as after a Scan loop.
func (s *Scanner) Tally(fn func(op BlockedOp, n int, blocked bool)) {
	if s.skip == nil {
		s.skip, s.srcs = new(Frame), make(map[srcKey]string)
	}
	s.counting = true
	defer func() { s.counting = false }()
	for s.Scan() {
		g := s.g
		op, blocked := g.blockedOp(s.sourceLocation)
		fn(op, g.Multiplicity(), blocked)
		s.g, s.spare = nil, g
	}
}

// sourceLocation is Frame.SourceLocation rendered once per distinct file
// and line, then served from the srcs cache.
func (s *Scanner) sourceLocation(f Frame) string {
	if f.File == "" {
		return f.Function
	}
	k := srcKey{f.File, f.Line}
	if v, ok := s.srcs[k]; ok {
		return v
	}
	v := f.SourceLocation()
	s.srcs[k] = v
	return v
}

// Err returns the first error encountered, if any. io.EOF is not an
// error: a dump simply ends. Malformed content is not an error either —
// the scanner resyncs at the next goroutine header and counts the loss
// in Malformed — so Err reports only reader-level failures (a truncated
// transfer, a line beyond the buffer bound).
func (s *Scanner) Err() error { return s.err }

// Malformed returns the number of goroutine members dropped by resync:
// blocks whose header looked like a goroutine header but failed to
// parse, whose lines were skipped up to the next well-formed header. A
// production sweep must salvage the rest of a multi-hundred-megabyte
// profile rather than discard it for one corrupt record; this count is
// the per-dump diagnostic that the salvage happened.
func (s *Scanner) Malformed() int { return s.malformed }

// Lines returns the number of lines read so far. After the whole dump
// it is zero only for an empty body (or a reader that failed before its
// first line), which is how a caller tells an empty dump from a
// non-empty body that held no goroutine member.
func (s *Scanner) Lines() int { return s.line }

var createdByPrefix = []byte("created by ")

// process consumes one line and reports whether a goroutine was yielded
// into s.g.
func (s *Scanner) process(line []byte) bool {
	// A frame or created-by line may be followed by its source location;
	// anything else falls through to normal classification, exactly as
	// the batch parser's one-line lookahead behaves.
	if target := s.pendingLoc; target != nil {
		s.pendingLoc = nil
		if s.attachLocation(line, target) {
			return false
		}
	}
	if s.probing {
		// The previous line looked like member content right after a
		// blank. It is a continuation only if this line is its source
		// location — a full frame pair; a lone function-shaped line is
		// indistinguishable from preamble junk and stays dropped.
		s.probing = false
		if s.attachLocation(line, &s.probeFrame) {
			s.malformed++
			s.cur, s.held = s.held, nil
			if s.probeCreated {
				s.cur.CreatedBy = s.probeFrame
				s.cur.CreatorID = s.probeCreator
			} else {
				*s.nextFrame() = s.probeFrame
			}
			return false
		}
		// Not a pair: the probe line was stray junk. Dispose of the held
		// member against this line like any other.
	}
	if s.held != nil {
		if len(line) == 0 {
			return false // still between members
		}
		if !s.isHeader(line) {
			if fn, created, creator, ok := s.memberContent(line); ok {
				// Frame-shaped content where a header should be: the
				// blank that ended the held member may have been a torn
				// frame line. Probe for the location that completes the
				// pair before committing to the resync.
				s.probing = true
				s.probeFrame = Frame{Function: fn}
				s.probeCreated, s.probeCreator = created, creator
				return false
			}
		}
		// A header or plain preamble: the blank really did end the
		// member. Yield it and classify the line as usual (a header
		// opens the next member; anything else is preamble).
		s.g, s.held = s.held, nil
		s.classify(line)
		return true
	}
	return s.classify(line)
}

// memberContent reports whether a line is frame-shaped member content — a
// function line or a created-by line — returning the (interned) function
// name and creator details for the probe.
func (s *Scanner) memberContent(line []byte) (fn string, created bool, creator int64, ok bool) {
	if rest, isCreated := bytes.CutPrefix(line, createdByPrefix); isCreated {
		if j := bytes.Index(rest, []byte(" in goroutine ")); j >= 0 {
			if id, idOK := parseInt64Bytes(rest[j+len(" in goroutine "):]); idOK {
				creator = id
			}
			rest = rest[:j]
		}
		return s.internBytes(rest), true, creator, true
	}
	if p := bytes.LastIndexByte(line, '('); p > 0 {
		return s.internBytes(line[:p]), false, 0, true
	}
	return "", false, 0, false
}

// classify consumes one line outside any held-member disposition and
// reports whether a goroutine was yielded into s.g.
func (s *Scanner) classify(line []byte) bool {
	switch {
	case s.isHeader(line):
		g, err := s.parseHeader(line)
		if err != nil {
			// Resync instead of aborting: drop the block this header
			// opened (its lines are skipped up to the next well-formed
			// header), count the loss, and salvage whatever preceded it.
			s.malformed++
			s.skipping = true
			prev := s.cur
			s.cur = nil
			if prev != nil {
				s.g = prev
				return true
			}
			return false
		}
		s.skipping = false
		prev := s.cur
		s.cur = g
		if prev != nil {
			s.g = prev
			return true
		}
		return false
	case s.skipping:
		// Mid-resync: this line belongs to the malformed member.
		return false
	case len(line) == 0:
		if s.cur != nil {
			// Hold the completed member for one content line instead of
			// yielding now: if frame-pair content follows, the blank was
			// a torn frame line and the member continues (see process).
			s.held, s.cur = s.cur, nil
		}
		return false
	case s.cur == nil:
		// Preamble outside any goroutine block (e.g. pprof's
		// "goroutine profile: total N" header).
		return false
	case bytes.HasPrefix(line, createdByPrefix):
		s.parseCreatedBy(line)
		return false
	default:
		s.parseFrameLine(line)
		return false
	}
}

// isHeader reports whether the line opens a goroutine block: the byte
// twin of isHeader in parse.go.
func (s *Scanner) isHeader(line []byte) bool {
	rest, ok := bytes.CutPrefix(line, []byte("goroutine "))
	if !ok {
		return false
	}
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return false
	}
	if _, ok := parseInt64Bytes(rest[:sp]); !ok {
		return false
	}
	return bytes.IndexByte(rest[sp:], '[') >= 0
}

// parseHeader parses "goroutine 18 [chan send, 5 minutes, locked to
// thread]:". The bracket region is cached: a leaked cluster repeats the
// identical state text thousands of times.
func (s *Scanner) parseHeader(line []byte) (*Goroutine, error) {
	rest := line[len("goroutine "):]
	sp := bytes.IndexByte(rest, ' ')
	id, _ := parseInt64Bytes(rest[:sp]) // isHeader verified it parses
	rest = rest[sp+1:]
	open := bytes.IndexByte(rest, '[')
	close := bytes.LastIndexByte(rest, ']')
	if open < 0 || close < open {
		return nil, fmt.Errorf("missing state brackets in %q", string(line))
	}
	content := rest[open+1 : close]
	info, ok := s.headers[string(content)]
	if !ok {
		state, wait, locked, count := parseStateAnnotations(string(content))
		info = headerInfo{state: s.internString(state), wait: wait, locked: locked, count: count}
		s.headers[string(content)] = info
	}
	g := s.spare
	if s.counting && g != nil {
		s.spare = nil
		*g = Goroutine{Frames: g.Frames[:0]}
	} else {
		g = new(Goroutine)
	}
	g.ID, g.State, g.WaitTime, g.Locked, g.Count = id, info.state, info.wait, info.locked, info.count
	return g, nil
}

// nextFrame returns where the current member's next frame goes: a new
// element of its Frames, or — when counting and the leaf is already kept
// — the skip frame, which only absorbs the frame's location line.
func (s *Scanner) nextFrame() *Frame {
	if n := len(s.cur.Frames); s.counting && n > 0 && !isRuntimeFrame(s.cur.Frames[n-1].Function) {
		return s.skip
	}
	s.cur.Frames = append(s.cur.Frames, Frame{})
	return &s.cur.Frames[len(s.cur.Frames)-1]
}

// parseFrameLine parses a function line ("svc.leak(0x12, 0x34)") and arms
// the location lookahead for the next line.
func (s *Scanner) parseFrameLine(line []byte) {
	p := bytes.LastIndexByte(line, '(')
	if p <= 0 {
		return
	}
	f := s.nextFrame()
	if f != s.skip {
		f.Function = s.internBytes(line[:p])
	}
	s.pendingLoc = f
}

// parseCreatedBy parses "created by pkg.Fn in goroutine 7" and arms the
// location lookahead for the creation site. Counting keeps no creation
// site: only the location lookahead is armed.
func (s *Scanner) parseCreatedBy(line []byte) {
	if s.counting {
		s.pendingLoc = s.skip
		return
	}
	rest := line[len("created by "):]
	var creator int64
	if j := bytes.Index(rest, []byte(" in goroutine ")); j >= 0 {
		if id, ok := parseInt64Bytes(rest[j+len(" in goroutine "):]); ok {
			creator = id
		}
		rest = rest[:j]
	}
	s.cur.CreatedBy = Frame{Function: s.internBytes(rest)}
	s.cur.CreatorID = creator
	s.pendingLoc = &s.cur.CreatedBy
}

// attachLocation parses a location line ("\t/src/a.go:12 +0x2b") into
// target, reporting whether the line was a location. Parsed locations are
// cached by content; repeats across a leaked cluster hit the cache.
func (s *Scanner) attachLocation(line []byte, target *Frame) bool {
	trimmed := bytes.TrimSpace(line)
	if f, ok := s.locs[string(trimmed)]; ok {
		target.File, target.Line, target.Offset = f.File, f.Line, f.Offset
		return true
	}
	file, ln, off, ok := parseLocationBytes(trimmed)
	if !ok {
		return false
	}
	f := Frame{File: s.internBytes(file), Line: ln, Offset: off}
	s.locs[string(trimmed)] = f
	target.File, target.Line, target.Offset = f.File, f.Line, f.Offset
	return true
}

// parseLocationBytes is the byte twin of parseLocation in parse.go.
func parseLocationBytes(s []byte) (file []byte, line int, off uint64, ok bool) {
	if len(s) == 0 {
		return nil, 0, 0, false
	}
	loc := s
	if sp := bytes.IndexByte(s, ' '); sp >= 0 {
		loc = s[:sp]
		offStr := bytes.TrimSpace(s[sp+1:])
		if bytes.HasPrefix(offStr, []byte("+0x")) {
			if v, ok := parseHexBytes(offStr[3:]); ok {
				off = v
			}
		}
	}
	colon := bytes.LastIndexByte(loc, ':')
	if colon <= 0 {
		return nil, 0, 0, false
	}
	n, numOK := parseInt64Bytes(loc[colon+1:])
	if !numOK {
		return nil, 0, 0, false
	}
	if !bytes.HasSuffix(loc[:colon], []byte(".go")) && bytes.IndexByte(loc[:colon], '/') < 0 {
		return nil, 0, 0, false
	}
	return loc[:colon], int(n), off, true
}

// internBytes returns the shared string for the byte content, allocating
// only the first time this scanner sees it since its table last reset
// (see Reset). The compiler elides the []byte->string conversion in the
// lookup, so a hit costs no allocation.
func (s *Scanner) internBytes(b []byte) string {
	if v, ok := s.intern[string(b)]; ok {
		return v
	}
	v := string(b)
	s.intern[v] = v
	return v
}

func (s *Scanner) internString(v string) string {
	if got, ok := s.intern[v]; ok {
		return got
	}
	s.intern[v] = v
	return v
}

// parseInt64Bytes mirrors strconv.ParseInt(string(b), 10, 64): optional
// sign, decimal digits only, overflow rejected.
func parseInt64Bytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (1<<63-1)/10 {
			return 0, false
		}
		n = n*10 + d
		if !neg && n > 1<<63-1 || neg && n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// parseHexBytes mirrors strconv.ParseUint(string(b), 16, 64).
func parseHexBytes(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if n > (1<<64-1)/16 {
			return 0, false
		}
		n = n*16 + d
	}
	return n, true
}
