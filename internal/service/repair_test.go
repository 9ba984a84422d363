package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"neurotest/internal/faultsim"
)

// TestServiceRepairJobEndToEnd is the acceptance path for the closed repair
// loop over HTTP: every die carries an injected two-fault cluster, the job
// streams phase and verdict events as NDJSON, and the terminal summary shows
// recovered yield above the unrepaired yield with post-repair accuracy
// within budget of the fault-free golden.
func TestServiceRepairJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	body := `{"arch":[10,8,3],"chips":3,"clusters":2,"sample":64,"seed":7}`
	var job JobStatus
	resp := postJSON(t, ts.URL+"/v1/repair", body, &job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repair submit: HTTP %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	phases := map[int][]string{}
	verdicts := map[int]repairEvent{}
	var lastStatus JobStatus
	lastLineWasStatus := false
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Event string `json:"event"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case probe.Event == "phase":
			var ev repairEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			phases[ev.Chip] = append(phases[ev.Chip], ev.Phase)
			lastLineWasStatus = false
		case probe.Event == "verdict":
			var ev repairEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			verdicts[ev.Chip] = ev
			lastLineWasStatus = false
		case probe.State != "":
			if err := json.Unmarshal(line, &lastStatus); err != nil {
				t.Fatal(err)
			}
			lastLineWasStatus = true
		default:
			t.Fatalf("unrecognized stream line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !lastLineWasStatus || lastStatus.State != "done" {
		t.Fatalf("stream must end with the terminal status, got state %q", lastStatus.State)
	}

	// Every die carried a defect, so the full five-phase loop must have run
	// on each, in order, and each must have a terminal verdict event.
	want := []string{"test", "diagnose", "plan", "reprogram", "retest"}
	for chip := 0; chip < 3; chip++ {
		got := phases[chip]
		if len(got) != len(want) {
			t.Fatalf("chip %d phases = %v, want %v", chip, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chip %d phases = %v, want %v", chip, got, want)
			}
		}
		ev, ok := verdicts[chip]
		if !ok {
			t.Fatalf("chip %d has no verdict event", chip)
		}
		if ev.Verdict != "REPAIRED" {
			t.Errorf("chip %d verdict %s, want REPAIRED", chip, ev.Verdict)
		}
		if ev.PostFails != 0 {
			t.Errorf("chip %d still fails %d retest items", chip, ev.PostFails)
		}
		if ev.CellsRetired == 0 {
			t.Errorf("chip %d repaired without retiring any cell", chip)
		}
	}

	repaired, _ := resultField(t, lastStatus, "repaired").(float64)
	if int(repaired) != 3 {
		t.Errorf("want 3 repaired dies: %+v", lastStatus.Result)
	}
	unrepaired, _ := resultField(t, lastStatus, "unrepaired_yield_pct").(float64)
	recovered, _ := resultField(t, lastStatus, "recovered_yield_pct").(float64)
	if unrepaired != 0 {
		t.Errorf("every die was defective, unrepaired yield = %v", unrepaired)
	}
	if recovered <= unrepaired {
		t.Errorf("recovered yield %v must beat unrepaired yield %v", recovered, unrepaired)
	}
	golden, _ := resultField(t, lastStatus, "mean_golden_accuracy").(float64)
	post, _ := resultField(t, lastStatus, "mean_post_accuracy").(float64)
	if golden <= 0 {
		t.Fatalf("golden accuracy missing: %+v", lastStatus.Result)
	}
	if post < golden-0.02 {
		t.Errorf("post-repair accuracy %v below golden %v - 2%%", post, golden)
	}
}

// TestServiceRepairDefectFreePopulation: clusters 0 means every die is
// healthy — the loop stops after the test phase and yield is already 100%.
func TestServiceRepairDefectFreePopulation(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	body := `{"arch":[10,8,3],"chips":2,"clusters":0,"sample":32,"seed":3}`
	var job JobStatus
	if resp := postJSON(t, ts.URL+"/v1/repair", body, &job); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repair submit: HTTP %d", resp.StatusCode)
	}
	st := pollJob(t, ts.URL, job.ID)
	if st.State != "done" {
		t.Fatalf("job: %+v", st)
	}
	if healthy, _ := resultField(t, st, "healthy").(float64); healthy != 2 {
		t.Errorf("want 2 healthy dies: %+v", st.Result)
	}
	if recovered, _ := resultField(t, st, "recovered_yield_pct").(float64); recovered != 100 {
		t.Errorf("defect-free population yield %v, want 100: %+v", recovered, st.Result)
	}
	if retired, _ := resultField(t, st, "cells_retired").(float64); retired != 0 {
		t.Errorf("healthy dies retired %v cells: %+v", retired, st.Result)
	}
}

// TestServiceRepairDeterministic replays an identical repair campaign and
// requires identical results — plans and verdicts are on the repo's
// determinism path.
func TestServiceRepairDeterministic(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	body := `{"arch":[10,8,3],"chips":2,"clusters":2,"sample":48,"seed":11}`
	run := func() JobStatus {
		var job JobStatus
		if resp := postJSON(t, ts.URL+"/v1/repair", body, &job); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("repair submit: HTTP %d", resp.StatusCode)
		}
		st := pollJob(t, ts.URL, job.ID)
		if st.State != "done" {
			t.Fatalf("job: %+v", st)
		}
		return st
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a.Result)
	bj, _ := json.Marshal(b.Result)
	if string(aj) != string(bj) {
		t.Errorf("identical repair campaigns diverged:\n%s\n%s", aj, bj)
	}
}

// TestServiceMonitorRepairEscalation composes the in-field monitor with the
// repair loop: fielded chips that fail their structural retest are pushed
// through repair, the verdict rides on the alarm event, and rescued chips
// are counted in the summary.
func TestServiceMonitorRepairEscalation(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	body := `{"arch":[12,8,4],"kind":"NASF","chips":6,"faulty":true,"repair":true,
	          "window":192,"max_retests":3,"vote":true,"seed":5}`
	var job JobStatus
	resp := postJSON(t, ts.URL+"/v1/monitor", body, &job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("monitor submit: HTTP %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	escalated := 0
	var lastStatus JobStatus
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Event string `json:"event"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case probe.Event == "alarm":
			var ev monitorEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Verdict == "FAIL" || ev.Verdict == "QUARANTINE" {
				if ev.RepairVerdict == "" {
					t.Errorf("failing chip %d escalated without a repair verdict: %+v", ev.Chip, ev)
				}
				escalated++
			}
		case probe.State != "":
			if err := json.Unmarshal(line, &lastStatus); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lastStatus.State != "done" {
		t.Fatalf("job: %+v", lastStatus)
	}
	if escalated == 0 {
		t.Fatal("faulty population produced no repair escalations")
	}
	repaired, ok := resultField(t, lastStatus, "repaired").(float64)
	if !ok || repaired == 0 {
		t.Errorf("repair escalation rescued nothing: %+v", lastStatus.Result)
	}
}

func TestServiceRepairRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	bad := []string{
		`{"clusters":2}`,                                      // missing arch
		`{"arch":[10,8,3]}`,                                   // missing chips
		`{"arch":[10,8,3],"chips":0}`,                         // zero population
		`{"arch":[10,8,3],"chips":1,"clusters":9}`,            // above densest sweep point
		`{"arch":[10,8,3],"chips":1,"sample":4096}`,           // universe above cap
		`{"arch":[10,8,3],"chips":1,"weight_bits":1}`,         // below quantizer floor
		`{"arch":[10,8,3],"chips":1,"workload_samples":2000}`, // workload above cap
		`{"arch":[10,8,3],"chips":1,"spare_axons":-1}`,        // negative spare budget
		`{"arch":[10,8,3],"chips":1,"accuracy_budget":1.5}`,   // budget above 1
	}
	for _, body := range bad {
		if resp := postJSON(t, ts.URL+"/v1/repair", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRepairJobsShareGolden: repair jobs on one artifact build their
// dictionaries over the artifact's memoized ATE, so however many jobs run,
// and whatever fault sample each draws, the program's good chip is
// simulated once.
func TestRepairJobsShareGolden(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	before := faultsim.Snapshot().GoldenBuilds
	const jobs = 3
	for i := 0; i < jobs; i++ {
		var job JobStatus
		body := fmt.Sprintf(`{"arch":[10,8,3],"chips":1,"clusters":2,"sample":32,"seed":%d}`, i+1)
		if resp := postJSON(t, ts.URL+"/v1/repair", body, &job); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("repair submit %d: HTTP %d", i, resp.StatusCode)
		}
		if done := pollJob(t, ts.URL, job.ID); done.State != "done" {
			t.Fatalf("repair job %d ended %q (%s)", i, done.State, done.Error)
		}
	}
	if d := faultsim.Snapshot().GoldenBuilds - before; d != 1 {
		t.Errorf("%d repair jobs on one artifact built %d Goldens, want 1", jobs, d)
	}
}
