package leakprof

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/frame"
)

// ShardReport is one shard worker's folded contribution to a distributed
// sweep: the mergeable moments for the endpoint partition it swept, plus
// the bookkeeping a coordinator needs to reassemble the exact single-
// process sweep — per-service profiled-instance counts (the RMS/mean
// denominators), per-service failure tallies (so global error budgets
// can be enforced from shard-local enforcement), and the capped failure
// detail. A report is O(services x locations), independent of fleet and
// profile size, which is the point: shards ship statistics, not dumps.
type ShardReport struct {
	// Shard names the worker (stable across sweeps; used in failure
	// attribution when a whole shard is lost).
	Shard string
	// Seq is the worker's sweep sequence number, monotonically increasing
	// per worker pipeline (assigned by ShardSweep). A coordinator inbox
	// uses (Shard, Seq) to drop a report the worker POSTed twice — a
	// retried POST whose first attempt actually landed — instead of
	// double-counting its moments. Zero means unsequenced (a hand-built
	// report) and is never deduplicated.
	Seq uint64
	// At is the shard's sweep start time.
	At time.Time
	// Profiles and Errors count the shard's folded and failed instances.
	Profiles int
	Errors   int
	// Services maps service name to profiled-instance count for the
	// shard's partition — Aggregator.MergeMoments' denominator input.
	Services map[string]int
	// FailedByService tallies the shard's failed instances per service,
	// uncapped. The coordinator sums these across shards and journals the
	// sum, so the next sweep's global error budget sees every failure.
	FailedByService map[string]int
	// Failures details failed instances, capped at maxSweepFailures.
	Failures []SweepFailure
	// Moments are the shard's per-group streaming moments, sorted by key.
	Moments []Moment
	// Err carries the shard's source-level sweep error, if any.
	Err string
}

// Shard reports ride the journal's framing (internal/frame): a length
// prefix and CRC-32 around a payload envelope of magic 0xB2 (distinct
// from journal records' 0xB1), version, and flags, with the body flate-
// compressed once it reaches frame.FlateMin. The body reuses the journal
// codec's primitives — varints (zigzag for signed), 8-byte little-endian
// IEEE floats, presence-byte timestamps — and opens with ONE string
// table shared by every section and record in the report: service
// names, locations, and functions repeat across the moments of a shard,
// so the dictionary amortises them once per report rather than once per
// record. Version 2 is the only version this build reads or writes.
var wireFormat = frame.Format{Name: "shard report", Magic: 0xB2, Version: 2}

// WriteShardReport frames and writes one report.
func WriteShardReport(w io.Writer, rep *ShardReport) error {
	payload, err := encodeShardReport(rep)
	if err != nil {
		return err
	}
	if err := frame.Write(w, payload); err != nil {
		return fmt.Errorf("leakprof: writing shard report: %w", err)
	}
	return nil
}

// ReadShardReport reads and decodes one framed report. The length
// prefix is a claim, not an allocation: the read buffer grows only as
// bytes arrive, and a compressed body stops inflating at
// frame.MaxPayload bytes.
func ReadShardReport(r io.Reader) (*ShardReport, error) {
	payload, err := frame.ReadOne(r)
	if err != nil {
		return nil, fmt.Errorf("leakprof: reading shard report: %w", err)
	}
	return decodeShardReport(payload)
}

// encodeShardReport renders the frame payload (envelope and body).
func encodeShardReport(rep *ShardReport) ([]byte, error) {
	tbl := frame.NewDictTable(frame.NewDict(), 0)
	body := encodeShardBody(rep, tbl)
	strs := tbl.AppendTo(nil)
	payload, err := wireFormat.Seal(len(strs)+len(body) >= frame.FlateMin, strs, body)
	if err != nil {
		return nil, fmt.Errorf("leakprof: shard report codec: %w", err)
	}
	return payload, nil
}

func encodeShardBody(rep *ShardReport, tbl *frame.DictTable) []byte {
	b := make([]byte, 0, 256)
	b = binary.AppendUvarint(b, tbl.Ref(rep.Shard))
	b = frame.AppendTime(b, rep.At)
	b = binary.AppendVarint(b, int64(rep.Profiles))
	b = binary.AppendVarint(b, int64(rep.Errors))
	b = binary.AppendUvarint(b, tbl.Ref(rep.Err))
	b = binary.AppendUvarint(b, rep.Seq)

	b = binary.AppendUvarint(b, uint64(len(rep.Services)))
	for svc, n := range rep.Services {
		b = binary.AppendUvarint(b, tbl.Ref(svc))
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.FailedByService)))
	for svc, n := range rep.FailedByService {
		b = binary.AppendUvarint(b, tbl.Ref(svc))
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.Failures)))
	for _, f := range rep.Failures {
		b = binary.AppendUvarint(b, tbl.Ref(f.Service))
		b = binary.AppendUvarint(b, tbl.Ref(f.Instance))
		msg := ""
		if f.Err != nil {
			msg = f.Err.Error()
		}
		b = binary.AppendUvarint(b, tbl.Ref(msg))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.Moments)))
	for i := range rep.Moments {
		m := &rep.Moments[i]
		b = binary.AppendUvarint(b, tbl.Ref(m.Service))
		b = binary.AppendUvarint(b, tbl.Ref(m.Op.Op))
		b = binary.AppendUvarint(b, tbl.Ref(m.Op.Location))
		b = binary.AppendUvarint(b, tbl.Ref(m.Op.Function))
		nilCh := byte(0)
		if m.Op.NilChannel {
			nilCh = 1
		}
		b = append(b, nilCh)
		b = binary.AppendVarint(b, int64(m.Op.WaitTime))
		b = binary.AppendVarint(b, int64(m.Total))
		b = binary.AppendVarint(b, int64(m.Instances))
		b = binary.AppendVarint(b, int64(m.ServiceProfiles))
		b = binary.AppendVarint(b, int64(m.Suspicious))
		b = frame.AppendFloat(b, m.SumSquares)
		b = binary.AppendVarint(b, int64(m.MaxCount))
		b = binary.AppendUvarint(b, tbl.Ref(m.MaxInstance))
	}
	return b
}

func decodeShardReport(payload []byte) (*ShardReport, error) {
	body, err := wireFormat.Open(payload)
	if err != nil {
		return nil, fmt.Errorf("leakprof: %w", err)
	}
	r := frame.NewReader(body)
	tbl := r.StringTable()

	rep := &ShardReport{}
	rep.Shard = r.Str(tbl)
	rep.At = r.Time()
	rep.Profiles = r.Int()
	rep.Errors = r.Int()
	rep.Err = r.Str(tbl)
	rep.Seq = r.Uvarint()

	for _, dst := range []*map[string]int{&rep.Services, &rep.FailedByService} {
		if n := r.Count(2); n > 0 {
			*dst = make(map[string]int, n)
			for i := 0; i < n; i++ {
				svc := r.Str(tbl)
				(*dst)[svc] = r.Int()
			}
		}
	}

	if n := r.Count(3); n > 0 {
		rep.Failures = make([]SweepFailure, n)
	}
	for i := range rep.Failures {
		f := &rep.Failures[i]
		f.Service = r.Str(tbl)
		f.Instance = r.Str(tbl)
		if msg := r.Str(tbl); msg != "" {
			f.Err = errors.New(msg)
		}
	}

	if n := r.Count(16); n > 0 {
		rep.Moments = make([]Moment, n)
	}
	for i := range rep.Moments {
		m := &rep.Moments[i]
		m.Service = r.Str(tbl)
		m.Op.Op = r.Str(tbl)
		m.Op.Location = r.Str(tbl)
		m.Op.Function = r.Str(tbl)
		m.Op.NilChannel = r.Byte() != 0
		m.Op.WaitTime = r.Varint()
		m.Total = r.Int()
		m.Instances = r.Int()
		m.ServiceProfiles = r.Int()
		m.Suspicious = r.Int()
		m.SumSquares = r.Float64()
		m.MaxCount = r.Int()
		m.MaxInstance = r.Str(tbl)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
