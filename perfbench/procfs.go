package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// statusMB returns a memory field of /proc/<pid>/status ("self" for this
// process), such as VmRSS or the peak VmHWM, in MB.
func statusMB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, fmt.Errorf("no value in %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// rssSampleEvery is how often rssSampler reads the resident set.
const rssSampleEvery = 20 * time.Millisecond

// rssSampler reads process pid's resident set every rssSampleEvery until
// its stop function is called, as long as more reports true (nil: always);
// stop returns the mean of the samples and the peak (VmHWM) in MB. The mean is the footprint the end-to-end metric reports: the peak
// of a Go process with a small live heap jumps by whole heap arenas with
// the collector's timing (16–25 MB between runs of one sim replay), while
// the mean over hundreds of samples holds still.
func rssSampler(pid string, more func() bool) (stop func() (mean, peak float64, err error)) {
	var samples []float64
	stopSampling := sampleEvery(rssSampleEvery, func() error {
		if more != nil && !more() {
			return nil
		}
		if v, err := statusMB(pid, "VmRSS"); err == nil {
			samples = append(samples, v)
		}
		return nil
	})
	return func() (float64, float64, error) {
		stopSampling()
		peak, err := statusMB(pid, "VmHWM")
		if err != nil {
			return 0, 0, err
		}
		if len(samples) == 0 {
			return 0, 0, fmt.Errorf("no resident-set sample of process %s", pid)
		}
		sum := 0.0
		for _, v := range samples {
			sum += v
		}
		return sum / float64(len(samples)), peak, nil
	}
}

// sampleEvery calls f on a goroutine of its own, at once and then every d,
// until the returned stop is called or f fails. stop waits for the last
// call to return, so the caller may then read what f wrote, and returns
// f's error.
func sampleEvery(d time.Duration, f func() error) (stop func() error) {
	done := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			if err := f(); err != nil {
				result <- err
				return
			}
			select {
			case <-done:
				result <- nil
				return
			case <-t.C:
			}
		}
	}()
	return func() error {
		close(done)
		return <-result
	}
}

// selfCPU returns the user+system CPU time this process has used, all
// threads included.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// taskCPU returns the CPU time process pid's live threads have run, from
// their schedstat (nanoseconds; /proc/<pid>/stat counts in 10 ms ticks, too
// coarse for a start-up of a few tens of milliseconds).
func taskCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between listing and reading
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s of %d", t.Name(), pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of task %s of %d: %w", t.Name(), pid, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// settle collects garbage before a timed set-up, so each one starts from
// the same heap and pays for its own collections only.
func settle() { runtime.GC() }

// goStats is the part of runtime.MemStats the go.* metrics use.
type goStats struct {
	allocBytes, gcCycles, pauseNs float64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{float64(m.TotalAlloc), float64(m.NumGC), float64(m.PauseTotalNs)}
}

// setGoMetrics reports the runtime work between two readings per 1000
// operations.
func setGoMetrics(rep *report, before, after goStats, ops int) {
	if ops <= 0 {
		return
	}
	k := float64(ops) / 1000
	rep.set("go.alloc_mb", (after.allocBytes-before.allocBytes)/1e6/k)
	rep.set("go.gc_cycles", (after.gcCycles-before.gcCycles)/k)
	rep.set("go.gc_pause_ms", (after.pauseNs-before.pauseNs)/1e6/k)
}

// promSeries parses Prometheus text exposition into series → value, the
// series key being the metric name with its label set as printed.
func promSeries(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds up every series of metric name whose key contains each of
// the label matchers (e.g. `op="admit"`).
func sumSeries(m map[string]float64, name string, matchers ...string) float64 {
	total := 0.0
	for k, v := range m {
		base, _, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, mt := range matchers {
			if !strings.Contains(k, mt) {
				ok = false
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
