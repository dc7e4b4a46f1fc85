package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/trace"
)

// arrival is one generated submission: the request the program receives
// and the trace time at which it was submitted.
type arrival struct {
	req      serverless.SubmitRequest
	traceSec float64
	// job is the index of the trace job the arrival came from; the
	// members of one hyper-parameter sweep (identical submissions due at
	// the same instant) share it. sweep is the sweep's size, 1 for none.
	job, sweep int
}

const (
	genTenants = 8
	// Every sweepEvery-th trace job becomes a sweep of sweepMin..sweepMax
	// copies (mean 5), so about a quarter of all arrivals come in sweeps:
	// (5/16) / (5/16 + 15/16) = 0.25.
	sweepEvery = 16
	sweepMin   = 2
	sweepMax   = 8
)

// arrivals returns n submissions drawn from the Philly-scale trace shape
// sized to the benchmark's 512 GPUs, from the trace of traceSeed. With
// sweeps, every sweepEvery-th trace job becomes a sweep. Equal arguments
// give identical arrivals.
func arrivals(traceSeed int64, n int, sweeps bool) ([]arrival, error) {
	tr := trace.Generate(trace.Config{
		Name:            "perfbench",
		Jobs:            n,
		ClusterGPUs:     512,
		Load:            1.15,
		MeanDurationSec: 2700,
		DurationSigma:   1.5,
		Users:           500,
		BurstEverySec:   86400,
		BurstFactor:     3,
		Seed:            traceSeed,
	})
	est := throughput.NewEstimator(model.DefaultA100())
	jobs, err := tr.Jobs(throughput.NewProfiler(est, 8, 128), est)
	if err != nil {
		return nil, err
	}
	out := make([]arrival, 0, n)
	for ji, j := range jobs {
		req := serverless.SubmitRequest{
			User:        j.User,
			Tenant:      tenantOf(j.User),
			Model:       j.Model.Name,
			GlobalBatch: j.GlobalBatch,
			Iterations:  j.TotalIters,
		}
		if j.Class == job.BestEffort {
			req.BestEffort = true
		} else {
			req.DeadlineSeconds = j.Deadline - j.SubmitTime
		}
		k := 1
		if sweeps && ji%sweepEvery == sweepEvery-1 {
			k = sweepMin + (ji/sweepEvery)%(sweepMax-sweepMin+1)
		}
		for c := 0; c < k && len(out) < n; c++ {
			out = append(out, arrival{req: req, traceSec: j.SubmitTime, job: ji, sweep: k})
		}
		if len(out) == n {
			break
		}
	}
	return out, nil
}

// tenantOf maps a trace user onto one of the genTenants tenants.
func tenantOf(user string) string {
	h := fnv.New32a()
	h.Write([]byte(user))
	return fmt.Sprintf("t%d", h.Sum32()%genTenants)
}

// schedule returns each arrival's due offset at rate arrivals per second:
// arrival i is due in the i-th slot of 1/rate, at a point within it drawn
// from seed. The members of a sweep share the due time of the first; the
// next arrival is due as if they had come one by one, so the mean rate
// holds.
//
// The seed moves only these instants. Letting it pick the trace, the sweeps
// or the tenant map (and with it the home shards) moved the front door's CPU
// time per arrival by 9% between seeds, against about 1% between runs of
// one seed, more than a bound can allow; the arrival instants still give
// each seed its own interleaving of arrivals, ticks and batches.
func schedule(arr []arrival, rate float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, len(arr))
	for i := range arr {
		if i > 0 && arr[i].job == arr[i-1].job {
			due[i] = due[i-1]
			continue
		}
		due[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return due
}

func sweepShare(arr []arrival) float64 {
	if len(arr) == 0 {
		return 0
	}
	n := 0
	for _, a := range arr {
		if a.sweep > 1 {
			n++
		}
	}
	return float64(n) / float64(len(arr))
}
