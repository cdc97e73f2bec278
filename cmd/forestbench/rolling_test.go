package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"forestview/internal/shard"
	"forestview/internal/workload"
)

// adminPost drives a token-gated fleet admin endpoint.
func adminPost(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Fleet-Token", fleetAdminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// shardGroupSearch posts one shard-level search and returns the status.
func shardGroupSearch(t *testing.T, url string, req shard.SearchRequest) int {
	t.Helper()
	body, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+shard.SearchPath, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestRollingRestartDrainE2E is the drain's acceptance proof: every shard
// of a 3-shard R=2 fleet is drained, restarted and re-added in sequence
// while an open-loop load runs against the coordinator — and not one
// response is a 5xx or a degraded merge. The rolling order per shard:
// survivors reload to the post-drain topology, the coordinator demotes the
// victim to last-resort, the victim drains out, the coordinator drops it,
// the shard restarts fresh and rejoins. The first cycle also asks every
// successor of every post-drain ownership group for a query it has not
// seen under that topology, before the coordinator switches to it: each
// answers 200 on first touch, having reloaded first. It does not show which
// step of a group's walk carried a request: at R=2 scavenge reaches the
// other replica too, so it passes with replica failover compiled out
// (internal/shard's TestTruncatedAnswerFailsOver pins that failover).
func TestRollingRestartDrainE2E(t *testing.T) {
	const repl = 2
	tp, err := newFleetTopology("roll3r2", 3, repl, 6, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()
	ids := tp.fleet.Members()[0].Shards

	coordFleet := func(action, id string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"action": action, "shard": id})
		if resp, b := adminPost(t, tp.url+"/api/admin/fleet", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet %s %s = %d: %s", action, id, resp.StatusCode, b)
		}
	}

	const loadDur = 6 * time.Second
	plan, err := workload.NewPlan(workload.Spec{
		Rate:     40,
		Duration: loadDur,
		Seed:     11,
		Mix:      workload.Mix{Search: 2, Enrich: 1},
		Genes:    tp.genes,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := func() (n int64) {
		for _, s := range tp.fleet.Coordinator().Stats().Shards {
			n += s.Requests
		}
		return n
	}
	runDone, before, t0 := make(chan []workload.Envelope, 1), sent(), time.Now()
	go func() { runDone <- workload.Run(context.Background(), plan, tp.url) }()
	// The restarts begin once the coordinator has sent its shards ten
	// requests of the load.
	for deadline := t0.Add(5 * time.Second); sent() < before+10; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the load did not reach the shards within 5 s")
		}
	}

	query := tp.u.ModuleGeneIDs(2)[:4]
	for i, victim := range ids {
		var survivors []string
		var rest []int // the survivors' indexes
		for j, id := range ids {
			if id != victim {
				survivors, rest = append(survivors, id), append(rest, j)
			}
		}
		fleetBody, err := json.Marshal(map[string]any{"shards": survivors, "replication": repl})
		if err != nil {
			t.Fatal(err)
		}

		// Survivors adopt the post-drain topology first: they hold what they
		// are about to own before anyone asks them for it.
		for _, j := range rest {
			if resp, b := adminPost(t, tp.fleet.URL(j)+shard.ShardFleetPath, fleetBody); resp.StatusCode != http.StatusOK {
				t.Fatalf("cycle %d: survivor %s reload = %d: %s", i, ids[j], resp.StatusCode, b)
			}
		}
		coordFleet("drain", victim)
		resp, b := adminPost(t, tp.fleet.URL(i)+shard.DrainPath, fleetBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cycle %d: drain %s = %d: %s", i, victim, resp.StatusCode, b)
		}
		var dr struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(b, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Status != shard.StatusDraining {
			t.Fatalf("cycle %d: drain response %s", i, b)
		}
		if i == 0 {
			// Before the coordinator switches to the 2-shard topology:
			// every successor of every post-drain ownership group serves
			// the group on first touch.
			for _, owners := range shard.Groups(tp.fleet.Members()[0].Catalog, survivors, repl) {
				for _, owner := range owners {
					code := shardGroupSearch(t, tp.fleet.URL(slices.Index(ids, owner)), shard.SearchRequest{
						Query: query, Shards: survivors, Replication: repl, Groups: [][]string{owners},
					})
					if code != http.StatusOK {
						t.Fatalf("post-drain search on %s (group %v) = %d, want 200", owner, owners, code)
					}
				}
			}
		}
		coordFleet("remove", victim)
		if err := tp.fleet.Restart(i); err != nil {
			t.Fatalf("cycle %d: restart %s: %v", i, victim, err)
		}
		// Everyone returns to the full-fleet view before the coordinator
		// readmits the restarted member.
		fullBody, _ := json.Marshal(map[string]any{"shards": ids, "replication": repl})
		for _, j := range rest {
			if resp, b := adminPost(t, tp.fleet.URL(j)+shard.ShardFleetPath, fullBody); resp.StatusCode != http.StatusOK {
				t.Fatalf("cycle %d: survivor %s rejoin reload = %d: %s", i, ids[j], resp.StatusCode, b)
			}
		}
		coordFleet("add", victim)
	}
	seq := time.Since(t0)
	if seq >= loadDur {
		t.Fatalf("rolling restart took %v, outlasting the %v load window — the zero-degraded claim was not under load", seq, loadDur)
	}

	envs := <-runDone
	if len(envs) < 100 {
		t.Fatalf("only %d envelopes — not a load", len(envs))
	}
	seqMS := float64(seq / time.Millisecond)
	after := 0
	for _, e := range envs {
		if e.Status != http.StatusOK {
			t.Fatalf("non-200 during rolling restart: %+v", e)
		}
		if e.Degraded {
			t.Fatalf("degraded merge during rolling restart: %+v", e)
		}
		if e.SchedMS > seqMS {
			after++
		}
	}
	if after == len(envs) {
		t.Fatalf("all %d envelopes issued after the restart sequence", len(envs))
	}
}
