package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// requestBytes is what the program receives for a stream: the encoded
// requests in order, with the trace time each is due at.
func requestBytes(t *testing.T, arr []arrival) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, a := range arr {
		if err := enc.Encode(struct {
			Req   any
			At    float64
			Sweep int
		}{a.req, a.traceSec, a.sweep}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func TestArrivalsDeterministic(t *testing.T) {
	a, err := arrivals(fdTraceSeed, 400, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arrivals(fdTraceSeed, 400, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(requestBytes(t, a), requestBytes(t, b)) {
		t.Fatal("the same trace seed gave different request bytes")
	}
	c, err := arrivals(httpTraceSeed, 400, true)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(requestBytes(t, a), requestBytes(t, c)) {
		t.Fatal("another trace seed gave the same request bytes")
	}
	if len(a) != 400 {
		t.Fatalf("got %d arrivals, want 400", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].traceSec < a[i-1].traceSec {
			t.Fatalf("arrival %d goes back in trace time", i)
		}
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	arr, err := arrivals(fdTraceSeed, 300, true)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := schedule(arr, 100, 7), schedule(arr, 100, 7), schedule(arr, 100, 8)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same || !differ {
		t.Fatalf("same seed equal: %v, other seed differs: %v; want true, true", same, differ)
	}
}

func TestArrivalsSweepShare(t *testing.T) {
	arr, err := arrivals(fdTraceSeed, 4000, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepShare(arr); math.Abs(got-0.25) > 0.05 {
		t.Errorf("sweep share %.3f, want about 0.25", got)
	}
	plain, err := arrivals(httpTraceSeed, 500, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepShare(plain); got != 0 {
		t.Errorf("sweep share without sweeps = %v", got)
	}
	// Every member of a sweep is the same submission.
	for i := 1; i < len(arr); i++ {
		if arr[i].job == arr[i-1].job && arr[i].req != arr[i-1].req {
			t.Fatalf("sweep members %d and %d differ", i-1, i)
		}
	}
}

func TestScheduleKeepsRateAndGroupsSweeps(t *testing.T) {
	arr := []arrival{{job: 0}, {job: 1}, {job: 1}, {job: 1}, {job: 2}, {job: 3}}
	due := schedule(arr, 100, 1)
	slot := []int{0, 1, 1, 1, 4, 5} // 10 ms slots; a sweep takes its first member's
	for i, k := range slot {
		lo := time.Duration(k) * 10 * time.Millisecond
		if due[i] < lo || due[i] >= lo+10*time.Millisecond {
			t.Errorf("due[%d] = %v, want within [%v, %v)", i, due[i], lo, lo+10*time.Millisecond)
		}
	}
	if due[1] != due[2] || due[2] != due[3] {
		t.Errorf("sweep members due at %v %v %v, want one instant", due[1], due[2], due[3])
	}
}
