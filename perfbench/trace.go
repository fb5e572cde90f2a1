package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval around a public call. Spans of one
// operation share Op; Parent names the enclosing span (0 = the root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases run the same code.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; close records it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// begin starts a span named layer.call under parent (0 = root of op).
func (t *tracer) begin(name string, op, parent int64) open {
	return t.beginAt(name, op, parent, time.Now())
}

// beginAt is begin with an explicit start, for a span that starts when
// an arrival was due rather than when the generator reached it.
func (t *tracer) beginAt(name string, op, parent int64, start time.Time) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.ids.Add(1), parent: parent, op: op, name: name, start: start}
}

// newOp allocates an operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (o open) end() {
	if o.t == nil {
		return
	}
	now := time.Now()
	s := span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name,
		Start: int64(o.start.Sub(o.t.t0)), End: int64(now.Sub(o.t.t0))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time in ns summed over all spans:
// a span's duration minus the union of its children's intervals. The
// layer is the span name up to its first dot.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	cover := t.childCover()
	out := map[string]int64{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - cover[s.ID]
	}
	return out
}

// childCover maps each span id to the time its children cover. The
// caller holds t.mu.
func (t *tracer) childCover() map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		out[s.ID] = covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// coverage is, over the root spans named root, the share of their
// duration that their direct children cover.
func (t *tracer) coverage(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	cover := t.childCover()
	var cov, total int64
	for _, s := range t.spans {
		if s.Name == root {
			total += s.End - s.Start
			cov += cover[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

// finishTrace reports the traced phase's per-layer self times per
// operation and writes the spans out.
func (r *report) finishTrace(cfg config, t *tracer, ops int64) error {
	if ops > 0 {
		self := t.selfTimes()
		for _, l := range layerSpans {
			r.layer["trace.self_ms_per_op."+l] = float64(self[l]) / 1e6 / float64(ops)
		}
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	r.cond["trace_file"] = path
	return t.write(path)
}
