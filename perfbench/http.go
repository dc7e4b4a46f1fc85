package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/elasticflow/elasticflow/internal/serverless"
)

const (
	httpWorkers = 2
	// httpServers × 8 GPUs is the platform efserver runs.
	httpServers = 64
	// httpReads is how many of its own live jobs a worker reads after each
	// submit, and httpMaxLive how many live jobs it keeps before it
	// cancels its oldest.
	httpReads   = 3
	httpMaxLive = 48
	// httpTraceSeed fixes the trace the submissions come from, apart from
	// the front-door one; --seed picks which live jobs are read.
	httpTraceSeed = 978
	// httpReadyTimeout bounds how long efserver may take to announce its
	// address or to exit after SIGINT.
	httpReadyTimeout = 30 * time.Second
	// httpSubmitsPerSec bounds the submit rate a run is sized for; past it
	// a worker runs out of arrivals and stops early.
	httpSubmitsPerSec = 400
	// httpRSSRequests is the window of requests efserver's resident set is
	// averaged over. The platform keeps every finished job, so its
	// footprint grows with the requests it has served; averaged over a
	// window of time, a host that served fewer read as a smaller footprint
	// (28 against 40 MB in two of ten runs). Every run so far served at
	// least 11,000 requests in 30 seconds.
	httpRSSRequests = 6000
)

// efserverProc is one efserver child process.
type efserverProc struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan error
}

// startEfserver starts efserver in single-platform mode with a durable
// state directory and returns once it has announced its address.
func startEfserver(bin, dir string) (*efserverProc, error) {
	if bin == "" {
		return nil, fmt.Errorf("http-mixed needs --efserver")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-servers", strconv.Itoa(httpServers), "-gpus-per-server", "8",
		"-state-dir", dir, "-pprof")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &efserverProc{cmd: cmd, dir: dir, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
		p.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if ok {
			p.base = "http://" + a
			return p, nil
		}
		return nil, fmt.Errorf("efserver exited before announcing its address: %v", <-p.done)
	case <-time.After(httpReadyTimeout):
		p.kill()
		return nil, fmt.Errorf("efserver did not announce its address within %v", httpReadyTimeout)
	}
}

// stop sends SIGINT and waits for a clean exit.
func (p *efserverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return err
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("efserver did not exit cleanly on SIGINT: %w", err)
		}
		return nil
	case <-time.After(httpReadyTimeout):
		p.kill()
		return fmt.Errorf("efserver did not exit within %v of SIGINT", httpReadyTimeout)
	}
}

func (p *efserverProc) kill() {
	_ = p.cmd.Process.Kill() // the process may already be gone
	<-p.done
}

// get fetches path from the server and returns the body.
func (p *efserverProc) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(p.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// serverCounters is a reading of what efserver exports about itself.
type serverCounters struct {
	metrics map[string]float64
	goStats goStats
	pauses  []float64 // runtime.MemStats.PauseNs ring
	cpu     time.Duration
}

func (p *efserverProc) counters(c *http.Client) (serverCounters, error) {
	var sc serverCounters
	body, err := p.get(c, "/metrics")
	if err != nil {
		return sc, err
	}
	if sc.metrics, err = promSeries(bytes.NewReader(body)); err != nil {
		return sc, err
	}
	heap, err := p.get(c, "/debug/pprof/heap?debug=1")
	if err != nil {
		return sc, err
	}
	if sc.goStats, sc.pauses, err = parseMemStats(string(heap)); err != nil {
		return sc, err
	}
	sc.cpu, err = taskCPU(p.cmd.Process.Pid)
	return sc, err
}

// parseMemStats reads the runtime.MemStats block of a debug=1 heap
// profile. PauseTotalNs is not part of it; pauseNs sums the recent-pause
// ring between two readings instead.
func parseMemStats(text string) (goStats, []float64, error) {
	var gs goStats
	var ring []float64
	found := 0
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "TotalAlloc", "NumGC":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return gs, nil, fmt.Errorf("heap profile %s: %w", k, err)
			}
			if k == "TotalAlloc" {
				gs.allocBytes = f
			} else {
				gs.gcCycles = f
			}
			found++
		case "PauseNs":
			for _, s := range strings.Fields(strings.Trim(v, "[]")) {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return gs, nil, fmt.Errorf("heap profile PauseNs: %w", err)
				}
				ring = append(ring, f)
			}
			found++
		}
	}
	if found != 3 || len(ring) == 0 {
		return gs, nil, fmt.Errorf("heap profile carries no runtime.MemStats block")
	}
	return gs, ring, nil
}

// pauseBetween sums the GC pauses after reading a up to reading b from b's
// ring (the last len(ring) pauses; older ones are lost).
func pauseBetween(a, b serverCounters) float64 {
	n := len(b.pauses)
	total := 0.0
	for gc := int(a.goStats.gcCycles) + 1; gc <= int(b.goStats.gcCycles); gc++ {
		if int(b.goStats.gcCycles)-gc < n {
			total += b.pauses[(gc+n-1)%n]
		}
	}
	return total
}

// httpWorker is one closed-loop client with its own keep-alive connection.
type httpWorker struct {
	id                              int
	c                               *http.Client
	srv                             *efserverProc
	rec                             *recorder
	rng                             *rand.Rand
	completed                       *atomic.Int64 // requests completed by all workers
	live                            []string
	submit                          []float64
	read                            []float64
	cancel                          []float64
	admitted, dropped, submitFailed int
	failed, mutations               int
	problems                        []string
}

// call makes one request and returns its status code and body; the round
// trip is timed into lat and recorded as a serverless span under root.
func (w *httpWorker) call(method, path string, body []byte, lat *[]float64, root int) (int, []byte, error) {
	req, err := http.NewRequest(method, w.srv.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	id := w.rec.begin("serverless", method, root)
	start := time.Now()
	resp, err := w.c.Do(req)
	if err != nil {
		w.rec.end(id)
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	*lat = append(*lat, ms(time.Since(start)))
	w.rec.end(id)
	w.completed.Add(1)
	return resp.StatusCode, data, err
}

// undocumented records a response the API does not document for the call.
func (w *httpWorker) undocumented(op string, code int, err error) {
	w.failed++
	if len(w.problems) < 5 {
		w.problems = append(w.problems, fmt.Sprintf("worker %d: %s: status %d, error %v", w.id, op, code, err))
	}
}

// loop runs submit / read / cancel rounds over arr until end.
func (w *httpWorker) loop(arr []arrival, end time.Time) {
	root := w.rec.begin("bench", "bench.worker", 0)
	defer w.rec.end(root)
	for i := 0; time.Now().Before(end) && i < len(arr); i++ {
		body, err := json.Marshal(arr[i].req)
		if err != nil {
			w.undocumented("encode", 0, err)
			continue
		}
		code, data, err := w.call(http.MethodPost, "/v1/jobs", body, &w.submit, root)
		var st serverless.JobStatus
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		switch {
		case err == nil && code == http.StatusCreated:
			w.admitted++
			w.mutations++
			w.live = append(w.live, st.ID)
		case err == nil && code == http.StatusConflict:
			w.dropped++
			w.mutations++
		default:
			w.submitFailed++
			w.undocumented("submit", code, err)
		}
		for r := 0; r < httpReads && len(w.live) > 0; r++ {
			id := w.live[w.rng.Intn(len(w.live))]
			code, data, err := w.call(http.MethodGet, "/v1/jobs/"+id, nil, &w.read, root)
			var got serverless.JobStatus
			if err == nil {
				err = json.Unmarshal(data, &got)
			}
			if err != nil || code != http.StatusOK || got.ID != id {
				w.undocumented("read "+id+" returned "+got.ID, code, err)
			}
		}
		if len(w.live) > httpMaxLive {
			id := w.live[0]
			w.live = w.live[1:]
			code, _, err := w.call(http.MethodDelete, "/v1/jobs/"+id, nil, &w.cancel, root)
			if err != nil || code != http.StatusNoContent {
				w.undocumented("cancel "+id, code, err)
				continue
			}
			w.mutations++
		}
	}
}

func runHTTP(e *env) (*report, error) {
	rep := newReport()
	var (
		setups, mats []float64
		arr          []arrival
		srv          *efserverProc
	)
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			err := srv.stop()
			rep.check(err == nil, "set-up instance: %v", err)
		}
		settle()
		start, cpu := time.Now(), selfCPU()
		var err error
		if arr, err = arrivals(httpTraceSeed, int(httpSubmitsPerSec*e.seconds)+1, false); err != nil {
			return nil, err
		}
		mats = append(mats, ms(time.Since(start)))
		cpu = selfCPU() - cpu
		if srv, err = startEfserver(e.efserver, filepath.Join(e.dir, fmt.Sprintf("efserver-%d", i))); err != nil {
			return nil, err
		}
		srvCPU, err := taskCPU(srv.cmd.Process.Pid)
		if err != nil {
			srv.kill()
			return nil, err
		}
		setups = append(setups, (cpu + srvCPU).Seconds())
	}
	rep.set("setup_s", median(setups))
	rep.set("trace.materialize_ms", median(mats))

	var completed atomic.Int64
	workers := make([]*httpWorker, httpWorkers)
	for i := range workers {
		workers[i] = &httpWorker{
			id:        i,
			c:         &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
			srv:       srv,
			rec:       e.rec,
			rng:       rand.New(rand.NewSource(e.seed*httpWorkers + int64(i))),
			completed: &completed,
		}
	}
	before, err := srv.counters(workers[0].c)
	if err != nil {
		srv.kill()
		return nil, err
	}
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	stopRSS := rssSampler(pid, func() bool { return completed.Load() < httpRSSRequests })
	stopWAL := walSampler(srv.dir, e.trace)
	start := time.Now()
	end := e.deadline(start)
	var wg sync.WaitGroup
	for i, w := range workers {
		// Worker i submits arrivals i, i+2, i+4, …: the same inputs for a
		// seed whatever the interleaving.
		mine := make([]arrival, 0, len(arr)/httpWorkers+1)
		for k := i; k < len(arr); k += httpWorkers {
			mine = append(mine, arr[k])
		}
		wg.Add(1)
		go func(w *httpWorker) {
			defer wg.Done()
			w.loop(mine, end)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	recBytes, err := stopWAL()
	if err != nil {
		srv.kill()
		return nil, err
	}
	rss, peak, err := stopRSS()
	if err != nil {
		srv.kill()
		return nil, err
	}
	after, err := srv.counters(workers[0].c)
	if err != nil {
		srv.kill()
		return nil, err
	}
	for _, w := range workers {
		w.c.CloseIdleConnections()
	}
	err = srv.stop()
	rep.check(err == nil, "server under test: %v", err)

	var submit, read, cancel []float64
	var admitted, dropped, submitFailed, failed, mutations int
	for _, w := range workers {
		submit = append(submit, w.submit...)
		read = append(read, w.read...)
		cancel = append(cancel, w.cancel...)
		admitted += w.admitted
		dropped += w.dropped
		submitFailed += w.submitFailed
		failed += w.failed
		mutations += w.mutations
		for _, p := range w.problems {
			rep.check(false, "%s", p)
		}
	}
	ops := len(submit) + len(read) + len(cancel)
	rep.attempted = ops
	rep.failed = failed
	rep.check(failed == 0, "%d responses the API does not document", failed)
	if len(submit) == 0 {
		rep.check(false, "no submit completed")
		return rep, nil
	}
	rep.check(admitted+dropped+submitFailed == len(submit), "submits: admitted %d + dropped %d + failed %d != %d", admitted, dropped, submitFailed, len(submit))

	rep.set("rss_mb", rss)
	rep.set("go.peak_rss_mb", peak)
	rep.set("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(ops))
	rep.set("bench.throughput_per_s", float64(ops)/wall.Seconds())
	rep.set("admit_ratio", float64(admitted)/float64(len(submit)))

	rep.set("serverless.submit_p50_ms", percentile(submit, 0.50))
	rep.set("serverless.submit_p99_ms", percentile(submit, 0.99))
	rep.set("serverless.read_p50_ms", percentile(read, 0.50))
	rep.set("serverless.read_p99_ms", percentile(read, 0.99))
	if p50 := percentile(read, 0.50); p50 > 0 {
		rep.set("serverless.read_tail_ratio", percentile(read, 0.99)/p50)
	}
	rep.set("serverless.cancel_p50_ms", percentile(cancel, 0.50))
	rep.set("serverless.cancel_p99_ms", percentile(cancel, 0.99))

	delta := func(name string, matchers ...string) float64 {
		return sumSeries(after.metrics, name, matchers...) - sumSeries(before.metrics, name, matchers...)
	}
	hits, misses := delta("ef_sched_plan_cache_hits_total"), delta("ef_sched_plan_cache_misses_total")
	if hits+misses > 0 {
		rep.set("core.plan_cache_hit_ratio", hits/(hits+misses))
	}
	rep.set("core.admit_calls", delta("ef_sched_decision_seconds_count", `op="admit"`))
	rep.set("core.schedule_calls", delta("ef_sched_decision_seconds_count", `op="allocate"`))
	rep.set("core.decision_admit_ms", 1000*delta("ef_sched_decision_seconds_sum", `op="admit"`))
	rep.set("core.decision_allocate_ms", 1000*delta("ef_sched_decision_seconds_sum", `op="allocate"`))
	if mutations > 0 {
		records := delta("ef_store_records_total")
		rep.set("store.records_per_mutation", records/float64(mutations))
		rep.set("store.fsyncs_per_mutation", delta("ef_store_fsyncs_total")/float64(mutations))
		rep.set("store.wal_bytes_per_mutation", recBytes*records/float64(mutations))
	}
	rep.set("store.record_bytes", recBytes)
	rep.set("store.snapshots", delta("ef_store_snapshots_total"))
	k := float64(ops) / 1000
	rep.set("go.alloc_mb", (after.goStats.allocBytes-before.goStats.allocBytes)/1e6/k)
	rep.set("go.gc_cycles", (after.goStats.gcCycles-before.goStats.gcCycles)/k)
	rep.set("go.gc_pause_ms", pauseBetween(before, after)/1e6/k)
	rep.set("bench.measured_s", wall.Seconds()*httpWorkers)
	rep.note("%d requests over %.2f s on %d connections: %d submits (admitted %d, dropped %d), %d reads, %d cancels",
		ops, wall.Seconds(), httpWorkers, len(submit), admitted, dropped, len(read), len(cancel))
	if ops < httpRSSRequests {
		rep.note("rss_mb covers the %d requests served, short of its window of %d", ops, httpRSSRequests)
	}

	if e.trace {
		if err := probeAppend(e, rep, recBytes); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
