package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// The multi-process HA smoke: TWO peered plnet routers front three
// engines, the load replayer streams 128 paced sessions at the first
// router with the second as its failover rotation, and the router
// carrying the traffic is SIGKILLed mid-replay. The nodes must fail
// over to the survivor and the fleet must still decode 128/128 with
// zero loss. Gated behind PLNET_HA_E2E because it builds the binary
// and takes minutes; CI runs it as the HA smoke tier.
// (routerGauge/routerCounter helpers live in the sibling e2e files.)

func TestClusterHADualRouterMultiProcess(t *testing.T) {
	if os.Getenv("PLNET_HA_E2E") == "" {
		t.Skip("set PLNET_HA_E2E=1 to run the multi-process dual-router smoke")
	}
	bin := filepath.Join(t.TempDir(), "plnet")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const sessions = 128
	engineIDs := []string{"engine-a", "engine-b", "engine-c"}
	engAddr := map[string]string{}
	obsAddr := map[string]string{"router-a": freePort(t), "router-b": freePort(t)}
	for _, id := range engineIDs {
		engAddr[id] = freePort(t)
		obsAddr[id] = freePort(t)
	}
	// Both router ports are reserved up front so each router can name
	// the other in -peers before either has started.
	routerAddrA, routerAddrB := freePort(t), freePort(t)

	routerA := startProc(t, bin, "router-a",
		"-mode", "route", "-listen", routerAddrA, "-peers", routerAddrB,
		"-metrics-addr", obsAddr["router-a"],
	)
	routerB := startProc(t, bin, "router-b",
		"-mode", "route", "-listen", routerAddrB, "-peers", routerAddrA,
		"-metrics-addr", obsAddr["router-b"],
	)
	waitHealthy(t, "router-a", obsAddr["router-a"])
	waitHealthy(t, "router-b", obsAddr["router-b"])

	// Engines join BOTH routers; either replica keeps the fleet routed.
	// They start only once both routers serve, back to back, so their
	// first hellos reach live routers as one stampede: an engine
	// started before its routers first connects after its own jittered
	// redial backoff, and the hellos could straddle two batch windows.
	var engines []*proc
	for _, id := range engineIDs {
		engines = append(engines, startProc(t, bin, id,
			"-mode", "engine", "-engine-id", id,
			"-listen", engAddr[id], "-metrics-addr", obsAddr[id],
			"-idle", "3s", "-drain-wait", "30s",
			"-join", routerAddrA+","+routerAddrB,
		))
	}
	for _, id := range engineIDs {
		waitHealthy(t, id, obsAddr[id])
	}

	// Both routers must converge on the 3-engine fleet — directly or via
	// a peer push (a peer-merged engine never counts as a join, so watch
	// the ring gauge) — at the same epoch, and see each other up.
	deadline := time.Now().Add(30 * time.Second)
	for {
		engsA := routerGauge(obsAddr["router-a"], "pl_cluster_engines")
		engsB := routerGauge(obsAddr["router-b"], "pl_cluster_engines")
		epochA := routerGauge(obsAddr["router-a"], "pl_cluster_epoch")
		epochB := routerGauge(obsAddr["router-b"], "pl_cluster_epoch")
		peersA := routerGauge(obsAddr["router-a"], "pl_cluster_router_peers")
		peersB := routerGauge(obsAddr["router-b"], "pl_cluster_router_peers")
		if engsA == 3 && engsB == 3 && epochA == epochB && peersA == 1 && peersB == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("HA pair never converged (engines a=%v b=%v, epoch a=%v b=%v, peers a=%v b=%v)\nrouter-a:\n%s\nrouter-b:\n%s",
				engsA, engsB, epochA, epochB, peersA, peersB, routerA.out.String(), routerB.out.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	// The join stampede batched: each router bumped its epoch at most
	// once for the three admissions (a peer adoption costs zero).
	for _, name := range []string{"router-a", "router-b"} {
		if got := routerCounter(obsAddr[name], "pl_cluster_ring_batches_total"); got > 1 {
			t.Errorf("%s pl_cluster_ring_batches_total = %d, want <= 1 (batched stampede)", name, got)
		}
	}

	// Paced replay at router A with router B as the standby rotation.
	load := startProc(t, bin, "load",
		"-mode", "load", "-load", "fleet-load", "-sessions", strconv.Itoa(sessions),
		"-routers", routerAddrA+","+routerAddrB, "-chunk", "512", "-fanout", "16", "-pace",
	)

	// SIGKILL the router carrying the traffic once it is mid-replay.
	deadline = time.Now().Add(60 * time.Second)
	for routerCounter(obsAddr["router-a"], "pl_cluster_chunks_forwarded_total") < 64 {
		if time.Now().After(deadline) {
			t.Fatalf("router-a never carried traffic; output:\n%s", routerA.out.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Logf("killing router-a after %d forwarded chunks",
		routerCounter(obsAddr["router-a"], "pl_cluster_chunks_forwarded_total"))
	if err := routerA.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	// The load must complete against the survivor alone.
	if err := load.wait(t, 240*time.Second); err != nil {
		t.Fatalf("load replay across router kill: %v\noutput:\n%s", err, load.out.String())
	}
	if got := routerCounter(obsAddr["router-b"], "pl_cluster_chunks_forwarded_total"); got == 0 {
		t.Errorf("surviving router forwarded nothing after the kill\nrouter-b:\n%s", routerB.out.String())
	}

	// The survivor's /metrics text endpoint carries the router-peer
	// series, as the runbook's grep expects.
	_, metricsText, err := httpGet(obsAddr["router-b"], "/metrics")
	if err != nil {
		t.Fatalf("survivor /metrics: %v", err)
	}
	for _, series := range []string{
		"pl_cluster_router_peers",
		"pl_cluster_ring_batches_total",
		"pl_cluster_peer_updates_total",
	} {
		if !regexp.MustCompile(series).MatchString(metricsText) {
			t.Errorf("survivor /metrics missing %s", series)
		}
	}

	// Wait for every packet to flush, then drain the engines for their
	// summaries: 128/128 decoded exactly once, fleet-wide.
	decodedRe := regexp.MustCompile(`session \d+ decoded`)
	deadline = time.Now().Add(120 * time.Second)
	for {
		total := 0
		for _, e := range engines {
			total += len(decodedRe.FindAllString(e.out.String(), -1))
		}
		if total >= sessions || time.Now().After(deadline) {
			break // shortfall surfaces in the summary assertion below
		}
		time.Sleep(50 * time.Millisecond)
	}
	var totalDecoded, totalUndecodable int64
	var counts []string
	for _, e := range engines {
		if err := e.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engines {
		if err := e.wait(t, 60*time.Second); err != nil {
			t.Fatalf("%s drain exit: %v\noutput:\n%s", e.name, err, e.out.String())
		}
		decoded, undecodable := drainSummary(t, e)
		totalDecoded += decoded
		totalUndecodable += undecodable
		counts = append(counts, fmt.Sprintf("%s=%d", e.name, decoded))
	}
	if totalDecoded != sessions {
		t.Errorf("fleet decoded %d packets for %d sessions (%v) — loss or duplicate decode\nrouter-b:\n%s",
			totalDecoded, sessions, counts, routerB.out.String())
	}
	if totalUndecodable != 0 {
		t.Errorf("engines reported %d undecodable sessions", totalUndecodable)
	}
	t.Logf("HA smoke: %v decoded across the router kill", counts)

	routerB.cmd.Process.Signal(os.Interrupt)
	if err := routerB.wait(t, 30*time.Second); err != nil {
		t.Fatalf("router-b exit: %v\noutput:\n%s", err, routerB.out.String())
	}
}
