// Package metrics is the simulator's observability layer: a windowed
// time-series sampler keyed to retired instructions (the paper's
// 1000-instruction adaptive window, Section 4.3.1) that reads the
// simulator's own counters, a live view of the latest window for
// -pprof's /debug/vars, and a JSONL exporter that makes every emitted
// series self-describing via a run manifest.
//
// The sampler owns no counters. Each event is counted once, by the
// component that observes it (stats.Sim or a plain field next to it);
// the sampler turns reader functions over those counters into
// per-window deltas, calling them only when a window closes, on the
// run-loop goroutine.
package metrics

import (
	"expvar"
	"fmt"
	"strings"
	"sync"

	"itpsim/internal/arch"
)

// DefaultWindow is the windowed sampler's default size in retired
// instructions — the paper's 1000-instruction adaptive window.
const DefaultWindow = 1000

// WindowRecord is one closed instruction window of the time series. The
// generic part (retired/cycles/IPC plus tracked-counter deltas) is filled
// by Windows.Close; the simulator's annotate callback adds the derived
// headline series the paper's adaptive mechanism is driven by.
type WindowRecord struct {
	// Window is the zero-based window index.
	Window uint64 `json:"window"`
	// Retired is the cumulative retired-instruction count at close. The
	// arch.Instr/arch.Cycle unit types marshal as plain JSON numbers, so
	// the export format is unchanged.
	Retired arch.Instr `json:"retired"`
	// Instr is the number of instructions retired inside this window.
	Instr arch.Instr `json:"instr"`
	// Cycles is the number of cycles elapsed inside this window.
	Cycles arch.Cycle `json:"cycles"`
	// IPC is Instr/Cycles for this window alone.
	IPC float64 `json:"ipc"`
	// Counters holds the per-window delta of every tracked counter.
	Counters map[string]uint64 `json:"counters,omitempty"`

	// Derived headline series (set by the simulator's annotate hook).
	STLBMPKIInstr float64 `json:"stlb_mpki_instr"`
	STLBMPKIData  float64 `json:"stlb_mpki_data"`
	// XPTPEnabled mirrors the adaptive controller's status bit for the
	// window that just closed; nil when no controller is attached. The
	// pointer is the JSON-facing presence flag; internally the state is a
	// value+valid pair — set it through SetXPTPEnabled, which points at
	// shared immutable values instead of boxing a bool per window.
	XPTPEnabled *bool `json:"xptp_enabled,omitempty"`
}

// xptpVals backs XPTPEnabled pointers; the values are never written, so
// every window record with the same status bit shares one pointer.
var xptpVals = [2]bool{false, true}

// SetXPTPEnabled records the adaptive controller's status bit without
// allocating.
func (r *WindowRecord) SetXPTPEnabled(enabled bool) {
	if enabled {
		r.XPTPEnabled = &xptpVals[1]
	} else {
		r.XPTPEnabled = &xptpVals[0]
	}
}

// trackedCounter is one counter the sampler follows through its reader.
type trackedCounter struct {
	name string
	read func() uint64
	// series marks a counter with a per-window delta in the records;
	// without it the counter appears in the live view only.
	series bool
	// last is the reading the open window's delta starts from; carry is
	// the part of that delta counted before a reset of the counter
	// (CarryAcross); delta is the closing window's scratch result; total
	// is the cumulative value the live view reports.
	last, carry, delta, total uint64
}

// Windows samples tracked counters every Size retired instructions and
// turns the deltas into a WindowRecord series. Closing is the cold path
// (once per window) and is mutex-protected so a supervisor thread can
// read recent history and the live view race-free while the simulation
// runs; the per-retire boundary check stays on the caller's side (a
// single compare against NextBoundary).
type Windows struct {
	size arch.Instr

	// tracked belongs to the run loop: Track/Watch before the run,
	// Close/SkipTo/CarryAcross on the run-loop goroutine. Readers run
	// outside mu, so no counter is read while another goroutine waits.
	tracked []trackedCounter

	mu sync.Mutex
	// records holds the retained series. Unbounded mode appends; with a
	// retention cap it is a fixed ring of retain slots addressed by
	// start/count, so closing a window at steady state overwrites the
	// oldest slot in place — recycling its Counters map — instead of
	// allocating a record plus map per window and memmoving the history.
	records []WindowRecord
	start   int    // ring read position (always 0 in unbounded mode)
	count   int    // live records
	dropped uint64 // records discarded by the retention cap
	retain  int    // max records kept; <= 0 means unbounded
	sink    func(*WindowRecord)

	// live is the view PublishExpvar serves. It is a separate allocation
	// so the published expvar holds only it: the Windows itself, whose
	// readers reach the machine, stays collectable once the run ends.
	live *liveView

	index       uint64
	lastRetired arch.Instr
	lastCycles  arch.Cycle
}

// NewWindows returns a sampler with the given window size in retired
// instructions (0 selects DefaultWindow).
func NewWindows(size arch.Instr) *Windows {
	if size == 0 {
		size = DefaultWindow
	}
	return &Windows{size: size, live: &liveView{}}
}

// liveView is the copy Close stores for other goroutines: retired and
// windows at the last close plus every tracked counter's cumulative
// value. It holds plain values only — never a reader, the Windows or
// anything else that reaches machine state.
type liveView struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (l *liveView) get() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return cloneCounters(l.m)
}

// Size returns the window size in retired instructions.
func (w *Windows) Size() arch.Instr { return w.size }

// Track adds a counter to the per-window delta set. read returns the
// counter's current value; it is called only by Close, SkipTo and
// CarryAcross, on the run-loop goroutine, and once here for the
// baseline, so a value counted before Track never reaches the first
// window. Call before the run starts, on the goroutine that will run it.
func (w *Windows) Track(name string, read func() uint64) {
	w.tracked = append(w.tracked, trackedCounter{name: name, read: read, series: true, last: read()})
}

// Watch adds a counter to the live view only: its cumulative value is
// stored at every close, but the records carry no delta for it. Same
// reader rules as Track.
func (w *Windows) Watch(name string, read func() uint64) {
	w.tracked = append(w.tracked, trackedCounter{name: name, read: read, last: read()})
}

// SetSink streams every closed window to fn (e.g. a JSONL writer) and
// caps in-memory retention at a small recent-history ring; without a sink
// the full series is retained for the caller to read back.
func (w *Windows) SetSink(fn func(*WindowRecord)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = fn
	if w.retain == 0 {
		w.retain = 64
	}
}

// SetRetain bounds the in-memory record history to n entries (<= 0 means
// unbounded). Call before the run for an allocation-free steady state;
// changing the cap mid-run linearizes the retained history once.
func (w *Windows) SetRetain(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n == w.retain {
		return
	}
	w.linearizeLocked()
	w.retain = n
}

// linearizeLocked rewrites the ring into plain append order (start 0), so
// a retention change can rebuild from a simple prefix.
func (w *Windows) linearizeLocked() {
	if w.start == 0 {
		w.records = w.records[:w.count]
		return
	}
	out := make([]WindowRecord, w.count)
	for i := 0; i < w.count; i++ {
		out[i] = *w.atLocked(i)
	}
	w.records = out
	w.start = 0
}

// atLocked returns the i-th retained record, oldest first.
func (w *Windows) atLocked(i int) *WindowRecord {
	idx := w.start + i
	if idx >= len(w.records) {
		idx -= len(w.records)
	}
	return &w.records[idx]
}

// slotLocked returns the record slot the closing window should fill,
// evicting (and recycling) the oldest slot when the ring is at its cap.
// The returned record's Counters map, if any, may be reused.
func (w *Windows) slotLocked() *WindowRecord {
	if w.retain <= 0 {
		w.records = append(w.records, WindowRecord{})
		w.count = len(w.records)
		return &w.records[w.count-1]
	}
	if len(w.records) != w.retain {
		// First closes after the cap was (re)set: grow the ring to its
		// final size once.
		w.linearizeLocked()
		ring := make([]WindowRecord, w.retain)
		keep := w.count
		if keep > w.retain {
			w.dropped += uint64(keep - w.retain)
			keep = w.retain
		}
		copy(ring, w.records[w.count-keep:])
		w.records = ring
		w.start, w.count = 0, keep
	}
	if w.count == w.retain {
		rec := &w.records[w.start]
		if w.start++; w.start == w.retain {
			w.start = 0
		}
		w.dropped++
		return rec
	}
	rec := w.atLocked(w.count)
	w.count++
	return rec
}

// Close ends the current window at the given cumulative retired count and
// cycle, computing counter deltas; annotate (may be nil) can decorate the
// record before it is stored and streamed. The sink, when set, must not
// retain the record past the call: with a retention cap its Counters map
// is recycled into a future window once the record ages out of the ring.
//
// The sink runs after w.mu is released: sinks do I/O (the JSONL
// exporter writes a file) and may legitimately re-enter the Windows
// (Recent, Closed) for context, so streaming under the lock would hold
// every concurrent stall-diagnostic reader hostage — or deadlock.
// Windows are closed by the single run-loop goroutine, so the sink
// still sees records in order, before the next Close can recycle them.
func (w *Windows) Close(retired arch.Instr, cycles arch.Cycle, annotate func(*WindowRecord)) {
	series := 0
	for i := range w.tracked {
		t := &w.tracked[i]
		v := t.read()
		t.delta = t.carry + v - t.last
		t.total += t.delta
		t.last, t.carry = v, 0
		if t.series {
			series++
		}
	}
	w.mu.Lock()
	rec := w.slotLocked()
	scratch := rec.Counters
	*rec = WindowRecord{
		Window:  w.index,
		Retired: retired,
		Instr:   retired - w.lastRetired,
		Cycles:  cycles - w.lastCycles,
	}
	if rec.Cycles > 0 {
		rec.IPC = float64(rec.Instr) / float64(rec.Cycles)
	}
	if series > 0 {
		if scratch == nil {
			scratch = make(map[string]uint64, series)
		} else {
			clear(scratch)
		}
		rec.Counters = scratch
		for i := range w.tracked {
			if t := &w.tracked[i]; t.series {
				rec.Counters[t.name] = t.delta
			}
		}
	}
	if annotate != nil {
		// The annotation must land in the stored record before any
		// reader can observe the closed window, so it runs under the
		// lock; it is an in-memory decoration, not I/O.
		//itp:lock-io annotate decorates the ring slot before publication; sinks, which do I/O, run below after Unlock
		annotate(rec)
	}
	w.index++
	w.lastRetired = retired
	w.lastCycles = cycles
	live := w.live
	live.mu.Lock()
	if live.m == nil {
		live.m = make(map[string]uint64, len(w.tracked)+2)
	}
	live.m["retired"] = uint64(retired)
	live.m["windows"] = w.index
	for i := range w.tracked {
		live.m[w.tracked[i].name] = w.tracked[i].total
	}
	live.mu.Unlock()
	sink := w.sink
	var out WindowRecord
	if sink != nil {
		// Shallow copy: the sink contract already forbids retaining the
		// record (its Counters map is ring-recycled), and the slot
		// itself cannot be rewritten before the sink returns — only a
		// later Close recycles slots, and Close is run-loop-only.
		out = *rec
	}
	w.mu.Unlock()
	if sink != nil {
		sink(&out)
	}
}

// SkipTo resynchronises the sampler after a functional fast-forward: the
// machine consumed instructions up to the cumulative retired count
// without closing windows, so the next window must start from this
// position — window index rebased to the serial coordinate, counter
// baselines re-sampled — instead of reporting the whole skipped span as
// one giant window. No record is emitted for the skipped region.
func (w *Windows) SkipTo(retired arch.Instr, cycles arch.Cycle) {
	for i := range w.tracked {
		t := &w.tracked[i]
		t.last, t.carry = t.read(), 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.index = uint64(retired / w.size)
	w.lastRetired = retired
	w.lastCycles = cycles
}

// CarryAcross keeps the open window whole across reset, which zeroes
// some of the counters the readers observe (the simulator's
// warmup-to-measure stats reset, which need not fall on a window
// boundary). Every tracked counter's delta so far is carried into the
// window before reset runs and the readings after it become the new
// baselines, so the window reports every event exactly once. Run-loop
// goroutine only.
func (w *Windows) CarryAcross(reset func()) {
	for i := range w.tracked {
		t := &w.tracked[i]
		t.carry += t.read() - t.last
	}
	reset()
	for i := range w.tracked {
		w.tracked[i].last = w.tracked[i].read()
	}
}

// Live returns a copy of the view stored at the last window close:
// "retired" and "windows" plus the cumulative value of every tracked
// counter; nil before the first close. Safe from any goroutine.
func (w *Windows) Live() map[string]uint64 { return w.live.get() }

// PublishExpvar serves Live as an expvar variable, so long campaigns can
// be inspected over -pprof's debug endpoint (/debug/vars). Publishing a
// name that already exists is a no-op rather than the expvar panic.
//
// The published function captures only the live view, never w: expvar
// keeps it for the life of the process, and w's readers hold the
// machine, which must be freed when its run ends.
func (w *Windows) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	live := w.live
	expvar.Publish(name, expvar.Func(func() any { return live.get() }))
}

// Records returns a copy of the retained window series. Counters maps are
// deep-copied: the retained originals are recycled as their records age
// out of a capped ring, so callers get stable snapshots.
func (w *Windows) Records() []WindowRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]WindowRecord, w.count)
	for i := range out {
		out[i] = *w.atLocked(i)
		out[i].Counters = cloneCounters(out[i].Counters)
	}
	return out
}

func cloneCounters(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	//itp:deterministic — whole-map copy; order cannot leak
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Closed returns how many windows have been closed so far.
func (w *Windows) Closed() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.index
}

// Recent returns up to n of the most recently closed windows (oldest
// first). Safe to call from any goroutine while the run is in flight —
// this is what stall-diagnostic snapshots use.
func (w *Windows) Recent(n int) []WindowRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n > w.count {
		n = w.count
	}
	out := make([]WindowRecord, n)
	for i := range out {
		out[i] = *w.atLocked(w.count - n + i)
		out[i].Counters = cloneCounters(out[i].Counters)
	}
	return out
}

// RecentString formats the last n windows compactly for diagnostic dumps.
func (w *Windows) RecentString(n int) string {
	recent := w.Recent(n)
	if len(recent) == 0 {
		return "(no windows closed yet)"
	}
	var b strings.Builder
	for i, rec := range recent {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "w%d{ipc=%.3f stlb-mpki=%.2f/%.2f", rec.Window, rec.IPC, rec.STLBMPKIInstr, rec.STLBMPKIData)
		if rec.XPTPEnabled != nil {
			fmt.Fprintf(&b, " xptp=%v", *rec.XPTPEnabled)
		}
		b.WriteByte('}')
	}
	return b.String()
}
