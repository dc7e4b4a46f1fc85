// Package plan implements the slot-indexed allocation machinery behind
// ElasticFlow's admission control and resource allocation (§4.1–§4.2).
//
// Time is discretized into slots of fixed duration starting at the current
// scheduling event. A Filler tracks, per slot, how many GPUs are already
// promised to higher-priority jobs, and computes for one job at a time the
// progressive filling of Algorithm 1: raise a per-slot allocation level j
// until the job's remaining iterations complete before its deadline, where
// the job receives min(j, free capacity) in every slot.
package plan

import (
	"fmt"
	"math"

	"github.com/elasticflow/elasticflow/internal/throughput"
)

// Demand is the input of progressive filling for one job.
type Demand struct {
	// Curve maps worker counts to iterations/sec under best placement.
	Curve throughput.Curve
	// Remaining is the number of iterations still to run (M_i minus
	// progress so far).
	Remaining float64
	// DeadlineSlot bounds the slots the job may use: allocations are
	// placed in [0, DeadlineSlot).
	DeadlineSlot int
	// MinGPUs is the smallest feasible worker count (memory floor); any
	// smaller allocation is useless and becomes zero.
	MinGPUs int
	// MaxGPUs caps the worker count (scaling ceiling). Zero means
	// unbounded.
	MaxGPUs int
}

// Allocation is the result of filling one job: its planned per-slot worker
// counts and derived accounting.
type Allocation struct {
	// Levels[t] is the number of GPUs in slot t. Slots after the finish
	// slot are zero; the finish slot itself holds its full level (the
	// planner reserves the whole slot; the simulator frees GPUs at the
	// actual completion instant).
	Levels []int
	// Satisfied reports whether the plan completes Remaining iterations
	// by DeadlineSlot. Unsatisfied allocations are best-effort maximal
	// plans (used to keep running jobs alive when replanning detects
	// infeasibility).
	Satisfied bool
	// FinishSlot is the slot in which the job completes (len(Levels) when
	// not satisfied).
	FinishSlot int
	// FinishFrac is the fraction of FinishSlot elapsed at completion.
	FinishFrac float64
	// GPUTime is the total GPU·seconds the plan consumes, counting the
	// finish slot fractionally — the quantity Algorithm 2 minimizes.
	GPUTime float64
}

// GPUsAt returns the planned worker count in slot t (0 beyond the plan).
func (a Allocation) GPUsAt(t int) int {
	if t < 0 || t >= len(a.Levels) {
		return 0
	}
	return a.Levels[t]
}

// FirstChangeSlot returns the smallest t ≥ 1 at which the planned level
// differs from slot 0, or 0 if the plan never changes. The simulator uses it
// to wake up at planned reallocation boundaries.
func (a Allocation) FirstChangeSlot() int {
	for t := 1; t < len(a.Levels); t++ {
		if a.Levels[t] != a.Levels[0] {
			return t
		}
	}
	return 0
}

// FinishTime returns the completion time in seconds from the plan origin.
func (a Allocation) FinishTime(slotDur float64) float64 {
	if !a.Satisfied && a.FinishSlot >= len(a.Levels) {
		return math.Inf(1)
	}
	return (float64(a.FinishSlot) + a.FinishFrac) * slotDur
}

// Filler tracks committed per-slot GPU usage and fills one demand at a time.
// The zero value is unusable; construct with NewFiller.
type Filler struct {
	// G is the cluster capacity in GPUs.
	G int
	// SlotDur is the slot length in seconds.
	SlotDur float64
	// PowerOfTwo restricts allocations to powers of two, matching buddy
	// placement (§4.3). When false, the filler runs Algorithm 1 exactly
	// as printed, with unit increments.
	PowerOfTwo bool

	used []int // committed usage per slot
}

// NewFiller creates a filler for a cluster of g GPUs with the given slot
// duration. powerOfTwo selects the buddy-compatible allocation discipline.
func NewFiller(g int, slotDur float64, powerOfTwo bool) *Filler {
	return &Filler{G: g, SlotDur: slotDur, PowerOfTwo: powerOfTwo}
}

// UsedAt returns the committed usage in slot t.
func (f *Filler) UsedAt(t int) int {
	if t < 0 || t >= len(f.used) {
		return 0
	}
	return f.used[t]
}

// FreeAt returns the free capacity in slot t.
func (f *Filler) FreeAt(t int) int { return f.G - f.UsedAt(t) }

// ensure extends the usage grid to n slots. It grows the backing array
// geometrically, so committing a pass of ever-longer plans copies the grid
// O(log n) times; slots reused from spare capacity are zeroed, since
// Restore may have left stale counts there.
func (f *Filler) ensure(n int) {
	old := len(f.used)
	if old >= n {
		return
	}
	if n <= cap(f.used) {
		f.used = f.used[:n]
		clear(f.used[old:])
		return
	}
	grown := make([]int, n, max(n, 2*cap(f.used)))
	copy(grown, f.used)
	f.used = grown
}

// Snapshot is an immutable copy of a Filler's committed usage: cheap to take
// (one memcpy) and restore relative to re-running progressive filling. The
// scheduler's plan cache keeps the snapshot of each fill pass's final grid
// and rebuilds earlier positions from it by exact integer Uncommits, so
// resuming a pass does not re-fill the already committed prefix.
type Snapshot struct {
	used []int
}

// Slots returns the number of slots the snapshot covers.
func (s Snapshot) Slots() int { return len(s.used) }

// Snapshot captures the current committed usage.
func (f *Filler) Snapshot() Snapshot {
	used := make([]int, len(f.used))
	copy(used, f.used)
	return Snapshot{used: used}
}

// Restore resets the committed usage to a previously taken snapshot. The
// snapshot stays valid and may be restored any number of times, into any
// filler with the same capacity and slot duration.
func (f *Filler) Restore(s Snapshot) {
	f.used = append(f.used[:0], s.used...)
}

// Commit reserves the allocation's levels in the filler's usage grid.
func (f *Filler) Commit(a Allocation) {
	f.ensure(len(a.Levels))
	for t, x := range a.Levels {
		f.used[t] += x
		if f.used[t] > f.G {
			// Programming error: callers must only commit plans
			// produced against the current usage.
			panic(fmt.Sprintf("plan: slot %d overcommitted: %d > %d", t, f.used[t], f.G))
		}
	}
}

// Uncommit releases a previously committed allocation.
func (f *Filler) Uncommit(a Allocation) {
	for t, x := range a.Levels {
		if t >= len(f.used) || f.used[t] < x {
			panic(fmt.Sprintf("plan: slot %d under-release", t))
		}
		f.used[t] -= x
	}
}

// clampLevel maps a raw candidate worker count to a feasible one: capped by
// MaxGPUs, rounded down to a power of two when required, and floored to zero
// when below MinGPUs.
func (f *Filler) clampLevel(x int, d *Demand) int {
	if d.MaxGPUs > 0 && x > d.MaxGPUs {
		x = d.MaxGPUs
	}
	if f.PowerOfTwo && x > 0 {
		p := 1
		for p*2 <= x {
			p *= 2
		}
		x = p
	}
	minG := d.MinGPUs
	if minG < 1 {
		minG = 1
	}
	if x < minG {
		return 0
	}
	return x
}

// Fill runs progressive filling (Algorithm 1's inner procedure) for the
// demand against the current committed usage: it finds the smallest level j
// such that allocating min(j, free(t)) in every slot t ∈ [0, DeadlineSlot)
// completes the demand in time. The allocation is returned uncommitted.
//
// When no level satisfies the demand, Fill returns the maximal-progress
// allocation with Satisfied=false.
func (f *Filler) Fill(d Demand) Allocation {
	return f.fill(&d)
}

// FillEarliest finds an allocation that completes the demand as soon as
// possible when its own deadline horizon no longer suffices: the horizon is
// doubled until progressive filling succeeds (so the plan finishes within
// 2× the minimal achievable time at the minimal level), capped at maxSlots.
// This is the recovery plan for an admitted job whose guarantee slipped —
// it must race to the finish, not idle at its memory floor.
func (f *Filler) FillEarliest(d Demand, maxSlots int) Allocation {
	h := d.DeadlineSlot
	if h < 1 {
		h = 1
	}
	for ; h < maxSlots; h *= 2 {
		d.DeadlineSlot = h
		if a := f.fill(&d); a.Satisfied {
			return a
		}
	}
	d.DeadlineSlot = maxSlots
	return f.fill(&d)
}

// Raise is a plan with its slot 0 raised and every later slot kept,
// re-trimmed at the new (earlier) completion point, evaluated without
// building its levels (RaiseSlot0). Apply builds them.
type Raise struct {
	// Slot0 is the raised slot-0 worker count after clamping to the free
	// capacity and the demand's feasible counts.
	Slot0 int
	// Satisfied, FinishSlot, FinishFrac and GPUTime are the raised plan's
	// Allocation fields.
	Satisfied  bool
	FinishSlot int
	FinishFrac float64
	GPUTime    float64
}

// FinishTime returns the raised plan's completion time in seconds from the
// plan origin, exactly as Allocation.FinishTime would.
func (r Raise) FinishTime(slotDur float64) float64 {
	if !r.Satisfied {
		return math.Inf(1)
	}
	return (float64(r.FinishSlot) + r.FinishFrac) * slotDur
}

// Apply builds the raised plan from cur, the levels the raise was evaluated
// on. It writes slot 0 in place and trims cur at the finish slot, so a caller
// that does not own cur must pass a copy. An empty cur yields a fresh
// one-slot plan.
func (r Raise) Apply(cur []int) Allocation {
	levels := cur
	if len(levels) == 0 {
		levels = []int{0}
	}
	levels[0] = r.Slot0
	if r.FinishSlot < len(levels) {
		levels = levels[:r.FinishSlot+1]
	}
	return Allocation{Levels: levels, Satisfied: r.Satisfied, FinishSlot: r.FinishSlot, FinishFrac: r.FinishFrac, GPUTime: r.GPUTime}
}

// RaiseSlot0 evaluates cur with its slot-0 worker count raised to slot0 and
// the remaining slots kept as they are. This is the marginal-return probe
// Algorithm 2 needs for loose-deadline jobs: re-filling the tail minimally
// after pinning slot 0 (the literal ProgressiveFilling(i, 1)) would slow the
// tail down and mask the benefit of the extra GPU, leaving spare capacity
// unused; keeping the tail makes the probe a strict improvement whenever the
// raised slot 0 adds throughput.
//
// free0 is the slot-0 capacity available to the job with cur released; the
// raise is clamped to it. The filler's committed usage is not read, and the
// evaluation allocates nothing: probes that are not adopted cost one walk
// over cur.
func (f *Filler) RaiseSlot0(d *Demand, cur []int, slot0, free0 int) Raise {
	x := slot0
	if x > free0 {
		x = free0
	}
	x = f.clampLevel(x, d)
	r := Raise{Slot0: x}
	n := len(cur)
	if n == 0 {
		n = 1
	}
	progress := 0.0
	// Plans are long runs of equal levels; look up the per-slot throughput
	// and GPU time once per run. Accumulation stays one addition per slot.
	lastLv := 0
	var delta, slotTime float64
	for t := 0; t < n; t++ {
		lv := x
		if t > 0 {
			lv = cur[t]
		}
		if lv == 0 {
			continue
		}
		if lv != lastLv {
			delta = d.Curve.At(lv) * f.SlotDur
			slotTime = float64(lv) * f.SlotDur
			lastLv = lv
		}
		if progress+delta >= d.Remaining-1e-9 {
			frac := 0.0
			if delta > 0 {
				frac = (d.Remaining - progress) / delta
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
			}
			r.Satisfied = true
			r.FinishSlot = t
			r.FinishFrac = frac
			r.GPUTime += float64(lv) * frac * f.SlotDur
			return r
		}
		progress += delta
		r.GPUTime += slotTime
	}
	r.Satisfied = d.Remaining <= 1e-9
	r.FinishSlot = n
	return r
}

// fill is the common implementation of progressive filling.
//
// Levels are probed in ascending order with a single early-exiting pass per
// level, so a job satisfiable at a low level costs O(finish slot) rather
// than O(horizon). Because per-slot allocations — and hence progress — are
// monotone in the level, the highest level doubles as the maximal-progress
// fallback when no level satisfies the demand.
func (f *Filler) fill(d *Demand) Allocation {
	horizon := d.DeadlineSlot
	if horizon < 0 {
		horizon = 0
	}
	// No upfront ensure: FreeAt treats slots beyond the usage grid as
	// fully free, and Commit grows the grid to the (finish-trimmed) plan.

	maxJ := f.G
	if d.MaxGPUs > 0 && d.MaxGPUs < maxJ {
		maxJ = d.MaxGPUs
	}
	lastJ := 0
	for j := 1; j <= maxJ; j = f.nextLevel(j) {
		lastJ = j
		if fin, frac, ok := f.probeLevel(d, j, horizon); ok {
			return f.materialize(d, j, fin, frac)
		}
	}
	return f.materializeUnsatisfied(d, lastJ, horizon)
}

// nextLevel advances the candidate level per the allocation discipline.
func (f *Filler) nextLevel(j int) int {
	if f.PowerOfTwo {
		return j * 2
	}
	return j + 1
}

// levelAt returns the worker count level j grants in slot t under the
// current usage.
func (f *Filler) levelAt(d *Demand, j, t int) int {
	x := j
	if free := f.FreeAt(t); x > free {
		x = free
	}
	return f.clampLevel(x, d)
}

// segEnd returns the exclusive end, capped at horizon, of the maximal run of
// slots starting at t over which levelAt is constant: slots group by equal
// committed usage (slots beyond the usage grid are one fully-free run).
// Filled plans are long runs of equal usage, so the per-slot level/clamp/
// curve work in the loops below amortizes to O(1) per slot — one level
// computation plus an integer comparison per slot of run.
func (f *Filler) segEnd(t, horizon int) int {
	n := len(f.used)
	if t >= n {
		return horizon
	}
	u := f.used[t]
	end := t + 1
	for end < horizon && end < n && f.used[end] == u {
		end++
	}
	if end == n && u == 0 {
		// The grid ends inside a zero-usage run; beyond it is free too.
		end = horizon
	}
	return end
}

// probeLevel walks slots accumulating progress until the demand is met,
// returning the finish slot and its fractional use. ok is false when the
// demand cannot complete by the horizon at this level. Progress accumulates
// with one addition per slot in slot order — runs only hoist the (identical)
// level and throughput computation, keeping results bit-identical to a
// slot-by-slot walk.
func (f *Filler) probeLevel(d *Demand, j, horizon int) (fin int, frac float64, ok bool) {
	if d.Remaining <= 1e-9 {
		return 0, 0, true
	}
	progress := 0.0
	for t := 0; t < horizon; {
		end := f.segEnd(t, horizon)
		x := f.levelAt(d, j, t)
		if x == 0 {
			t = end
			continue
		}
		delta := d.Curve.At(x) * f.SlotDur
		for ; t < end; t++ {
			if progress+delta >= d.Remaining-1e-9 {
				fr := 0.0
				if delta > 0 {
					fr = (d.Remaining - progress) / delta
					if fr < 0 {
						fr = 0
					}
					if fr > 1 {
						fr = 1
					}
				}
				return t, fr, true
			}
			progress += delta
		}
	}
	return horizon, 0, false
}

// materialize builds the satisfied allocation for level j finishing at
// (fin, frac): levels up to and including the finish slot, fractional GPU
// time.
func (f *Filler) materialize(d *Demand, j, fin int, frac float64) Allocation {
	levels := make([]int, fin+1)
	gpuTime := 0.0
	for t := 0; t <= fin; {
		end := f.segEnd(t, fin+1)
		x := f.levelAt(d, j, t)
		slotTime := float64(x) * f.SlotDur
		finTime := float64(x) * frac * f.SlotDur
		for ; t < end; t++ {
			levels[t] = x
			if t < fin {
				gpuTime += slotTime
			} else {
				gpuTime += finTime
			}
		}
	}
	if d.Remaining <= 1e-9 {
		// Nothing to run: an empty, satisfied plan.
		levels = nil
		gpuTime = 0
	}
	return Allocation{Levels: levels, Satisfied: true, FinishSlot: fin, FinishFrac: frac, GPUTime: gpuTime}
}

// materializeUnsatisfied builds the maximal best-effort plan over the whole
// horizon for an unsatisfiable demand.
func (f *Filler) materializeUnsatisfied(d *Demand, j, horizon int) Allocation {
	levels := make([]int, horizon)
	gpuTime := 0.0
	for t := 0; t < horizon; {
		end := f.segEnd(t, horizon)
		x := f.levelAt(d, j, t)
		slotTime := float64(x) * f.SlotDur
		for ; t < end; t++ {
			levels[t] = x
			gpuTime += slotTime
		}
	}
	if d.Remaining <= 1e-9 {
		return Allocation{Levels: make([]int, horizon), Satisfied: true, FinishSlot: 0, GPUTime: 0}
	}
	return Allocation{Levels: levels, Satisfied: false, FinishSlot: horizon, GPUTime: gpuTime}
}

// progress returns the iterations the levels achieve over the horizon.
func (f *Filler) progress(d Demand, levels []int) float64 {
	p := 0.0
	for _, x := range levels {
		p += d.Curve.At(x) * f.SlotDur
	}
	return p
}

// TotalCommitted returns the committed GPU·slots across all slots, a debug
// aid for tests.
func (f *Filler) TotalCommitted() int {
	s := 0
	for _, u := range f.used {
		s += u
	}
	return s
}
