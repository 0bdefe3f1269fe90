package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names a span: the public call it wraps.
type spanName uint8

const (
	spanOp spanName = iota // one client decision: the call, its read and its shadow patches
	spanOnlineAdmit
	spanOnlineAdmitBatch
	spanOnlinePartial
	spanOnlineRemove
	spanOnlineRemoveBatch
	spanOnlineRevoke
	spanOnlineRestore
	spanOnlineRead // Tasks() + Config() after a decision
	spanAnalysisAdd
	spanAnalysisDrop
	spanCoreCompile
	spanDesignSolve
	spanOnlineNewManager
	spanOnlineVerify
	spanOnlineCheckProfiles
	spanOracleCompile
	spanCoreConfigFor
	spanSimReplay
	spanSimDrive
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "online.admit", "online.admit_batch", "online.partial", "online.remove", "online.remove_batch",
	"online.revoke", "online.restore", "online.read", "analysis.add", "analysis.drop",
	"core.compile", "design.solve", "online.new_manager", "online.verify", "online.check_profiles",
	"oracle.compile", "core.config_for", "sim.replay", "sim.drive",
}

// callSpan is the span name of a manager write call.
func callSpan(k opKind) spanName { return spanOnlineAdmit + spanName(k) }

// span is one timed public call. Spans of one client decision share op;
// parent is the enclosing span's id, or -1.
type span struct {
	id, parent, op int32
	name           spanName
	// fallback marks an analysis patch during which the profile's
	// Fallbacks count moved: a full recompile instead of a patch.
	fallback   bool
	start, end int64 // nanoseconds since the tracer started
}

func (s span) dur() int64 { return s.end - s.start }

// maxKeptSpans bounds the spans kept for the span file; the per-layer
// figures are derived from every span regardless.
const maxKeptSpans = 300_000

// tracer keeps spans in memory: the current round's for the per-layer
// figures, and the first maxKeptSpans overall for the span file.
type tracer struct {
	t0      time.Time
	round   []span
	kept    []span
	dropped int
	ids     int32
	ops     int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int32 { t.ids++; return t.ids }
func (t *tracer) newOp() int32 { t.ops++; return t.ops }

// record adds a finished span; id 0 draws a fresh id.
func (t *tracer) record(id, parent, op int32, name spanName, start, end time.Time, fallback bool) int32 {
	if id == 0 {
		id = t.newID()
	}
	s := span{id: id, parent: parent, op: op, name: name, fallback: fallback,
		start: start.Sub(t.t0).Nanoseconds(), end: end.Sub(t.t0).Nanoseconds()}
	t.round = append(t.round, s)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
	}
	return id
}

// writeSpans writes the kept spans as CSV, and the run's host and
// per-layer metrics as JSON, under outDir.
func writeSpans(o options, t *tracer, h host, metrics map[string]metric) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "spans-"+o.workload+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns,fallback")
	for _, s := range t.kept {
		fb := 0
		if s.fallback {
			fb = 1
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.id, s.parent, s.op, spanNames[s.name], s.start, s.end, fb)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(map[string]any{
		"host": h, "workload": o.workload, "seed": o.seed, "seconds": o.seconds,
		"spans": len(t.kept), "spans_dropped": t.dropped, "metrics": metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "layers-"+o.workload+".json"), append(meta, '\n'), 0o644)
}
