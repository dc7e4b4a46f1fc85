package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/plan"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// renderDecisions drives a scheduler through a scripted-but-randomized
// workload — arrivals, admissions, progress advances, rescale charges,
// completions, capacity changes, earliest-deadline probes — and renders
// every observable decision into one deterministic transcript string.
func renderDecisions(e *ElasticFlow, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	curves := []throughput.Curve{
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.5}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.1, 4: 1.15}),
	}
	var out []byte
	emit := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...)...)
		out = append(out, '\n')
	}

	var active []*job.Job
	now := 0.0
	g := 16
	nextID := 0
	for step := 0; step < 120; step++ {
		switch rng.Intn(6) {
		case 0, 1: // arrival + admission decision
			nextID++
			j := &job.Job{
				ID:                 fmt.Sprintf("j%03d", nextID),
				TotalIters:         50 + rng.Float64()*500,
				SubmitTime:         now,
				Deadline:           now + 120 + rng.Float64()*3000,
				Class:              job.SLO,
				Curve:              curves[rng.Intn(len(curves))],
				MinGPUs:            1,
				RescaleOverheadSec: 10,
			}
			if rng.Intn(4) == 0 {
				j.Class = job.BestEffort
				j.Deadline = math.Inf(1)
			}
			ok := e.Admit(now, j, active, g)
			emit("admit %s -> %v", j.ID, ok)
			if ok {
				active = append(active, j)
			}
		case 2: // progress advance on a random job
			if len(active) > 0 {
				j := active[rng.Intn(len(active))]
				j.DoneIters += rng.Float64() * 40
				if rng.Intn(3) == 0 {
					j.Rescales++
				}
			}
		case 3: // completion
			if len(active) > 0 {
				i := rng.Intn(len(active))
				emit("complete %s", active[i].ID)
				active = append(active[:i], active[i+1:]...)
			}
		case 4: // capacity change (node event) — engines also invalidate
			g = 8 + rng.Intn(3)*8
			e.InvalidatePlanCache()
			emit("capacity %d", g)
		case 5: // earliest-deadline probe for a hypothetical job
			c := &job.Job{
				ID:                 "probe",
				TotalIters:         200,
				SubmitTime:         now,
				Deadline:           now + 60,
				Class:              job.SLO,
				Curve:              curves[rng.Intn(len(curves))],
				MinGPUs:            1,
				RescaleOverheadSec: 10,
			}
			d, ok := e.EarliestDeadline(now, c, active, g)
			emit("earliest %v %v", d, ok)
		}
		// Every step ends in a scheduling decision, like the sim's
		// admit-then-reschedule cadence.
		dec := e.Schedule(now, active, g)
		ids := make([]string, 0, len(dec.Alloc))
		for id := range dec.Alloc {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			emit("alloc %s=%d", id, dec.Alloc[id])
		}
		emit("wake %v", dec.Wake)
		plans := e.Plans(now, active, g)
		pids := make([]string, 0, len(plans))
		for id := range plans {
			pids = append(pids, id)
		}
		sort.Strings(pids)
		for _, id := range pids {
			p := plans[id]
			emit("plan %s levels=%v fin=%d frac=%v gputime=%v sat=%v",
				id, p.Levels, p.FinishSlot, p.FinishFrac, p.GPUTime, p.Satisfied)
		}
		if rng.Intn(2) == 0 {
			now += float64(rng.Intn(240))
		}
	}
	return string(out)
}

// TestPlanCacheDeterminism is the golden cross-check of the tentpole: the
// cached scheduler and a from-scratch scheduler must produce byte-identical
// decision transcripts over randomized evolving workloads — admissions,
// allocations, full plans (levels, fractional finishes, GPU times), wake-ups
// and earliest-deadline offers all included.
func TestPlanCacheDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cached := New(Options{PowerOfTwo: true})
		cold := New(Options{PowerOfTwo: true, DisablePlanCache: true})
		got := renderDecisions(cached, seed)
		want := renderDecisions(cold, seed)
		if got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := i - 200
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("seed %d: cached and from-scratch transcripts diverge at byte %d:\ncached: …%q\ncold:   …%q",
				seed, i, got[lo:min(i+200, len(got))], want[lo:min(i+200, len(want))])
		}
	}
}

// TestPlanCacheDeterminismUnitMode repeats the cross-check in the
// unit-increment ablation (PowerOfTwo=false), whose fills exercise different
// level sequences and clamping.
func TestPlanCacheDeterminismUnitMode(t *testing.T) {
	cached := New(Options{PowerOfTwo: false})
	cold := New(Options{PowerOfTwo: false, DisablePlanCache: true})
	if got, want := renderDecisions(cached, 42), renderDecisions(cold, 42); got != want {
		t.Fatal("unit-mode cached and from-scratch transcripts diverge")
	}
}

// TestPlanCacheHitsSteadyState asserts the cache actually engages: repeated
// Schedule calls with unchanged jobs must be (near-)pure hits after the
// first, and Admit's second pass must reuse the first pass's prefix.
func TestPlanCacheHitsSteadyState(t *testing.T) {
	e := New(Options{PowerOfTwo: true})
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	var active []*job.Job
	for i := 0; i < 6; i++ {
		active = append(active, &job.Job{
			ID:         fmt.Sprintf("s%d", i),
			TotalIters: 100,
			Deadline:   1e4 + float64(i)*100,
			Class:      job.SLO,
			Curve:      curve,
			MinGPUs:    1,
		})
	}
	e.Schedule(0, active, 16) // warm
	ResetPlanCacheStats()
	for i := 0; i < 10; i++ {
		e.Schedule(0, active, 16)
	}
	hits, misses := PlanCacheStats()
	if misses != 0 || hits != 60 {
		t.Errorf("steady-state Schedule: hits=%d misses=%d, want 60/0", hits, misses)
	}

	// A progress advance on the job with the 3rd-earliest deadline keeps a
	// 2-job prefix hot and refills the rest.
	active[2].DoneIters = 10
	ResetPlanCacheStats()
	e.Schedule(0, active, 16)
	hits, misses = PlanCacheStats()
	if hits != 2 || misses != 4 {
		t.Errorf("after advancing job 2: hits=%d misses=%d, want 2/4", hits, misses)
	}

	// InvalidatePlanCache forces a full recompute.
	e.InvalidatePlanCache()
	ResetPlanCacheStats()
	e.Schedule(0, active, 16)
	hits, misses = PlanCacheStats()
	if hits != 0 || misses != 6 {
		t.Errorf("after invalidation: hits=%d misses=%d, want 0/6", hits, misses)
	}
}

// randomJobs draws a mixed job set at time now: SLO jobs with loose, tight
// and infeasible deadlines (so passes contain satisfied fills and recovery
// plans), some already running or charged rescales, and best-effort jobs.
func randomJobs(rng *rand.Rand, n int, now float64) []*job.Job {
	curves := []throughput.Curve{
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.5}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.1, 4: 1.15}),
	}
	jobs := make([]*job.Job, n)
	for i := range jobs {
		j := &job.Job{
			ID:                 fmt.Sprintf("r%03d", i),
			TotalIters:         50 + rng.Float64()*900,
			DoneIters:          rng.Float64() * 40,
			SubmitTime:         now - rng.Float64()*600,
			Deadline:           now + 30 + rng.Float64()*4000,
			Class:              job.SLO,
			Curve:              curves[rng.Intn(len(curves))],
			MinGPUs:            1 + rng.Intn(2),
			RescaleOverheadSec: 10,
			Rescales:           rng.Intn(3),
		}
		if rng.Intn(3) == 0 {
			j.GPUs = 1 << rng.Intn(3)
		}
		if rng.Intn(4) == 0 {
			j.Class = job.BestEffort
			j.Deadline = math.Inf(1)
		}
		jobs[i] = j
	}
	return jobs
}

// renderPlans renders a Plans result in ID order.
func renderPlans(plans map[string]plan.Allocation) string {
	ids := make([]string, 0, len(plans))
	for id := range plans {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []byte
	for _, id := range ids {
		p := plans[id]
		out = fmt.Appendf(out, "%s levels=%v fin=%d frac=%v gputime=%v sat=%v\n",
			id, p.Levels, p.FinishSlot, p.FinishFrac, p.GPUTime, p.Satisfied)
	}
	return string(out)
}

// TestGreedyAdoptionLeavesCacheIntact: the greedy phase edits an adopted
// job's plan in place after copying it once, and the copy is what keeps the
// plan cache's shared records intact. Plans → Schedule → Plans at one
// decision time must read the same with the cache on (later calls are full
// hits on records an earlier round adopted from) as with it off, and every
// slot's summed plan usage must stay within capacity.
func TestGreedyAdoptionLeavesCacheIntact(t *testing.T) {
	adopted := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := float64(rng.Intn(5000))
		jobs := randomJobs(rng, 2+rng.Intn(14), now)
		g := 8 << rng.Intn(3)
		unit := seed%5 == 0
		cached := New(Options{PowerOfTwo: !unit})
		cold := New(Options{PowerOfTwo: !unit, DisablePlanCache: true})

		var trail [2]string
		for k, e := range []*ElasticFlow{cached, cold} {
			first := renderPlans(e.Plans(now, jobs, g))
			dec := e.Schedule(now, jobs, g)
			plans := e.Plans(now, jobs, g)
			second := renderPlans(plans)
			if first != second {
				t.Fatalf("seed %d (cache %v): Plans changed across Schedule:\n%s\nvs\n%s", seed, k == 0, first, second)
			}
			ids := make([]string, 0, len(dec.Alloc))
			for id := range dec.Alloc {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			var alloc []byte
			for _, id := range ids {
				alloc = fmt.Appendf(alloc, "%s=%d ", id, dec.Alloc[id])
			}
			trail[k] = first + string(alloc) + fmt.Sprint(dec.Wake)

			horizon := 0
			for _, p := range plans {
				horizon = max(horizon, len(p.Levels))
			}
			for s := 0; s < horizon; s++ {
				sum := 0
				for _, p := range plans {
					sum += p.GPUsAt(s)
				}
				if sum > g {
					t.Fatalf("seed %d: slot %d plans %d GPUs > capacity %d", seed, s, sum, g)
				}
			}
			if k == 0 {
				for id, a := range e.MinimumSatisfactoryShare(now, jobs, g) {
					if plans[id].GPUsAt(0) != a.GPUsAt(0) {
						adopted++
					}
				}
			}
		}
		if trail[0] != trail[1] {
			t.Fatalf("seed %d: cached and from-scratch rounds differ:\n%s\nvs\n%s", seed, trail[0], trail[1])
		}
	}
	if adopted == 0 {
		t.Fatal("no workload adopted a spare-GPU probe; the test exercises nothing")
	}
}

// TestRestoreAtMatchesScratchPass: for randomized fill passes — satisfied
// fills, recovery plans, a skipped admission candidate, best-effort tails —
// the grid restoreAt rebuilds at every prefix position p equals the grid a
// from-scratch pass over the first p jobs leaves, through both the suffix
// uncommit and the prefix commit walk.
func TestRestoreAtMatchesScratchPass(t *testing.T) {
	suffix, prefix := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := float64(rng.Intn(5000))
		g := 8 << rng.Intn(2)
		e := New(Options{PowerOfTwo: seed%4 != 0})
		slo, be := splitJobs(randomJobs(rng, 3+rng.Intn(14), now))
		skip := ""
		if len(slo) > 0 && rng.Intn(2) == 0 {
			skip = slo[rng.Intn(len(slo))].ID
		}
		e.fillPass(now, slo, be, skip, g)
		st := e.states[0]
		n := len(st.recs)
		for p := 0; p <= n; p++ {
			got := e.newFiller(g)
			st.restoreAt(got, p)
			if n-p < p {
				suffix++
			} else {
				prefix++
			}
			want := e.newFiller(g)
			ps, pb := slo, be[:0]
			if p <= len(slo) {
				ps = slo[:p]
			} else {
				pb = be[:p-len(slo)]
			}
			fps := make([]uint64, p)
			e.extendFill(&fillState{}, want, now, ps, pb, skip, fps)
			slots := max(got.Snapshot().Slots(), want.Snapshot().Slots())
			for s := 0; s < slots; s++ {
				if got.UsedAt(s) != want.UsedAt(s) {
					t.Fatalf("seed %d: position %d of %d: slot %d rebuilt %d, from scratch %d",
						seed, p, n, s, got.UsedAt(s), want.UsedAt(s))
				}
			}
		}
	}
	if suffix == 0 || prefix == 0 {
		t.Fatalf("walks exercised: suffix uncommit %d, prefix commit %d; want both", suffix, prefix)
	}
}
