package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// The multi-process churn smoke: a router started on an EMPTY ring
// (-auto-admit, no -engines), engines that announce themselves with
// -join, one engine SIGKILLed mid-replay (evicted after -dead-timeout,
// then rejoining under the same identity), and a paced fleet replay
// whose every session must decode somewhere. Gated behind
// PLNET_CHURN_E2E; CI runs it as the ~60 s churn soak tier.

// routerGauge reads one gauge from the router's /metrics.json.
func routerGauge(addr, name string) float64 {
	_, body, err := httpGet(addr, "/metrics.json")
	if err != nil {
		return -1
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if json.Unmarshal([]byte(body), &snap) != nil {
		return -1
	}
	return snap.Gauges[name]
}

var decodedSessionRe = regexp.MustCompile(`session (\d+) decoded`)

// decodedSessions extracts the set of session IDs an engine process
// logged as decoded — the cross-process ledger. Counting distinct IDs
// makes the zero-silent-loss assertion immune to the at-least-once
// duplicates a crash failover's replay can produce.
func decodedSessions(into map[string]int, procs ...*proc) int {
	total := 0
	for _, p := range procs {
		for _, m := range decodedSessionRe.FindAllStringSubmatch(p.out.String(), -1) {
			into[m[1]]++
			total++
		}
	}
	return total
}

func TestClusterChurnMultiProcess(t *testing.T) {
	if os.Getenv("PLNET_CHURN_E2E") == "" {
		t.Skip("set PLNET_CHURN_E2E=1 to run the multi-process churn smoke")
	}
	bin := filepath.Join(t.TempDir(), "plnet")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const sessions = 128
	engAddr := map[string]string{"engine-a": freePort(t), "engine-b": freePort(t)}
	obsAddr := map[string]string{"engine-a": freePort(t), "engine-b": freePort(t), "router": freePort(t)}
	routerAddr := freePort(t)

	// The router starts knowing nobody: membership arrives purely over
	// the wire from -join engines.
	router := startProc(t, bin, "router",
		"-mode", "route", "-listen", routerAddr,
		"-auto-admit", "-dead-timeout", "2s",
		"-metrics-addr", obsAddr["router"],
	)
	waitHealthy(t, "router", obsAddr["router"])
	if got := routerGauge(obsAddr["router"], "pl_cluster_engines"); got != 0 {
		t.Fatalf("fresh auto-admit router reports %v engines, want 0", got)
	}

	engineArgs := func(id, listen, obs string) []string {
		return []string{
			"-mode", "engine", "-engine-id", id,
			"-listen", listen, "-metrics-addr", obs,
			"-join", routerAddr,
			"-idle", "3s", "-drain-wait", "30s",
		}
	}
	engA := startProc(t, bin, "engine-a", engineArgs("engine-a", engAddr["engine-a"], obsAddr["engine-a"])...)
	engB := startProc(t, bin, "engine-b", engineArgs("engine-b", engAddr["engine-b"], obsAddr["engine-b"])...)
	waitEngines := func(what string, want float64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for routerGauge(obsAddr["router"], "pl_cluster_engines") != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: pl_cluster_engines never reached %v; router output:\n%s",
					what, want, router.out.String())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitEngines("initial auto-join", 2)
	epochAfterJoin := routerGauge(obsAddr["router"], "pl_cluster_epoch")

	load := startProc(t, bin, "load",
		"-mode", "load", "-load", "fleet-load", "-sessions", strconv.Itoa(sessions),
		"-router", routerAddr, "-chunk", "512", "-fanout", "16", "-pace",
	)

	// Hard-kill engine A once it has live routes: no drain, no goodbye.
	// The router's outage clock starts when the connection drops, the
	// janitor evicts it after -dead-timeout, and in-flight streams fail
	// over with replay.
	deadline := time.Now().Add(30 * time.Second)
	for routerCounter(obsAddr["router"], "pl_cluster_streams_routed_total") < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("router never saw 20 streams; router output:\n%s", router.out.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := engA.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	killErr := <-engA.done
	engA.done <- killErr // keep the harness cleanup non-blocking
	waitEngines("dead-engine eviction", 1)
	if got := routerCounter(obsAddr["router"], "pl_cluster_engines_evicted_total"); got < 1 {
		t.Fatalf("pl_cluster_engines_evicted_total = %d, want >= 1", got)
	}

	// The same identity comes back on a fresh port and re-admits itself
	// mid-replay — no operator action anywhere in this test.
	engAddr["engine-a2"] = freePort(t)
	obsAddr["engine-a2"] = freePort(t)
	engA2 := startProc(t, bin, "engine-a2", engineArgs("engine-a", engAddr["engine-a2"], obsAddr["engine-a2"])...)
	waitEngines("rejoin after crash", 2)
	if epoch := routerGauge(obsAddr["router"], "pl_cluster_epoch"); epoch <= epochAfterJoin {
		t.Errorf("pl_cluster_epoch = %v after crash+rejoin, want > %v", epoch, epochAfterJoin)
	}

	if err := load.wait(t, 180*time.Second); err != nil {
		t.Fatalf("load replay: %v\noutput:\n%s", err, load.out.String())
	}

	// Give the survivors time to decode the tail, then drain them for
	// their summaries. The ledger counts DISTINCT decoded sessions
	// across all three engine processes (including the killed one's
	// captured output): every one of the 128 sessions must appear at
	// least once — crash duplicates are allowed, silence is not.
	ledger := map[string]int{}
	deadline = time.Now().Add(90 * time.Second)
	for len(ledger) < sessions && time.Now().Before(deadline) {
		ledger = map[string]int{}
		decodedSessions(ledger, engA, engB, engA2)
		time.Sleep(250 * time.Millisecond)
	}
	for _, p := range []*proc{engB, engA2} {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := p.wait(t, 60*time.Second); err != nil {
			t.Fatalf("%s drain exit: %v\noutput:\n%s", p.name, err, p.out.String())
		}
	}
	ledger = map[string]int{}
	total := decodedSessions(ledger, engA, engB, engA2)
	if len(ledger) != sessions {
		t.Errorf("decoded %d distinct sessions of %d (%d events total)\nrouter:\n%s",
			len(ledger), sessions, total, router.out.String())
	}
	if joins := routerCounter(obsAddr["router"], "pl_cluster_engine_joins_total"); joins < 3 {
		t.Errorf("pl_cluster_engine_joins_total = %d, want >= 3 (two joins + one rejoin)", joins)
	}
	t.Logf("churn smoke: %d distinct sessions decoded (%d events, %d duplicate), joins=%d evicted=%d handoffs=%d failovers=%d",
		len(ledger), total, total-len(ledger),
		routerCounter(obsAddr["router"], "pl_cluster_engine_joins_total"),
		routerCounter(obsAddr["router"], "pl_cluster_engines_evicted_total"),
		routerCounter(obsAddr["router"], "pl_cluster_handoffs_total"),
		routerCounter(obsAddr["router"], "pl_cluster_failovers_total"))

	router.cmd.Process.Signal(os.Interrupt)
	if err := router.wait(t, 30*time.Second); err != nil {
		t.Fatalf("router exit: %v\noutput:\n%s", err, router.out.String())
	}
}
