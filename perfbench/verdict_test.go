package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/frontdoor"
)

// delivered returns a ticket whose channel holds n verdicts and is closed,
// the way the front door hands back one verdict.
func delivered(n int) *frontdoor.Ticket {
	ch := make(chan frontdoor.Verdict, n)
	for i := 0; i < n; i++ {
		ch <- frontdoor.Verdict{}
	}
	close(ch)
	return &frontdoor.Ticket{C: ch}
}

func TestCheckVerdictsCountsEveryClass(t *testing.T) {
	res := []result{
		{class: classAdmitted, verdicts: 1, ticket: delivered(0)},
		{class: classDropped, verdicts: 1, ticket: delivered(0)},
		{class: classRejected, verdicts: 1},
		{class: classErrored, verdicts: 1},
		{class: classAdmitted, verdicts: 1, ticket: delivered(0)},
	}
	rep := newReport()
	n := checkVerdicts(rep, "t", res)
	if len(rep.problems) != 0 {
		t.Fatalf("problems: %v", rep.problems)
	}
	if n != [numClasses]int{2, 1, 1, 1} {
		t.Errorf("counts = %v", n)
	}
}

func TestCheckVerdictsCatchesMissingAndSecondVerdicts(t *testing.T) {
	res := []result{
		{class: classAdmitted, verdicts: 0, ticket: delivered(0)}, // never decided
		{class: classAdmitted, verdicts: 1, ticket: delivered(1)}, // a second verdict waits
	}
	rep := newReport()
	checkVerdicts(rep, "t", res)
	got := strings.Join(rep.problems, "\n")
	for _, want := range []string{"arrival 0 got 0 verdicts", "1 arrivals got a second verdict"} {
		if !strings.Contains(got, want) {
			t.Errorf("problems %q lack %q", got, want)
		}
	}
}

func TestLatencyFromDueAndFailures(t *testing.T) {
	due := time.Now()
	ok := result{due: due, decided: due.Add(30 * time.Millisecond), class: classDropped}
	if got := ok.latency(); math.Abs(got-30) > 1e-9 {
		t.Errorf("latency = %v ms, want 30", got)
	}
	failed := result{due: due, decided: due, class: classErrored}
	if !math.IsInf(failed.latency(), 1) {
		t.Errorf("an error's latency = %v, want +Inf (misses every limit)", failed.latency())
	}
}
