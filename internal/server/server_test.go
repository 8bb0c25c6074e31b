package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
	"xtreesim/internal/engine"
)

// newTestServer builds a Server (not listening) with tight limits and
// returns it with an httptest front end.  Each tweak adjusts the server
// before the front end starts, for settings Config does not expose.
func newTestServer(t *testing.T, cfg Config, tweaks ...func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	for _, tweak := range tweaks {
		tweak(s)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.eng.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeEmbed(t *testing.T, data []byte) EmbedResponse {
	t.Helper()
	var er EmbedResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return er
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "test-1"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Version != "test-1" {
		t.Errorf("healthz %+v", hr)
	}
}

func TestEmbedSingleTreeTheorem1Bounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "random", N: 1008, Seed: Seed(42)},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	er := decodeEmbed(t, data)
	if len(er.Items) != 1 {
		t.Fatalf("items %d", len(er.Items))
	}
	it := er.Items[0]
	if it.Error != "" {
		t.Fatalf("item error: %s", it.Error)
	}
	if it.Dilation > 3 || it.MaxLoad > 16 {
		t.Errorf("Theorem 1 bounds violated over the wire: dilation=%d load=%d", it.Dilation, it.MaxLoad)
	}
	if it.Host != HostXTree || it.N != 1008 || it.HostVertices == 0 {
		t.Errorf("item %+v", it)
	}
}

func TestEmbedBatchCacheHitsAndEncodedTrees(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Same shape twice by family+seed, plus one explicit encoding.
	enc := bintree.CompleteN(63).Encode()
	req := EmbedRequest{Trees: []TreeSpec{
		{Family: "complete", N: 255, Seed: Seed(1)},
		{Family: "complete", N: 255, Seed: Seed(9)},
		{Encoded: enc},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/embed", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	er := decodeEmbed(t, data)
	if len(er.Items) != 3 {
		t.Fatalf("items %d", len(er.Items))
	}
	for _, it := range er.Items {
		if it.Error != "" {
			t.Fatalf("item %d error: %s", it.Index, it.Error)
		}
	}
	// The two complete-255 trees are isomorphic: they cost one compute,
	// and the other is a cache hit or, when both race onto workers, a
	// coalesced wait.
	if st := s.eng.Stats(); st.Misses != 2 || st.Hits+st.Coalesced != 1 {
		t.Errorf("3 items over 2 shapes: misses=%d hits=%d coalesced=%d, want 2 computes and 1 reuse",
			st.Misses, st.Hits, st.Coalesced)
	}
	if er.Items[2].N != 63 {
		t.Errorf("encoded tree resolved to n=%d", er.Items[2].N)
	}
}

func TestEmbedHostsHypercubeUniversalInjective(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "random", N: 496, Seed: Seed(3)}, Host: HostHypercube,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("hypercube status %d: %s", resp.StatusCode, data)
	}
	hc := decodeEmbed(t, data).Items[0]
	if hc.Host != HostHypercube || hc.Dilation > 4 || hc.MaxLoad > 16 {
		t.Errorf("hypercube item %+v", hc)
	}

	// The universal host is the smallest G_n with room for the guest:
	// 1008 fills X(5)'s 1008 slots exactly, 1009 needs X(6)'s 2032.
	for _, n := range []int{300, 1008, 1009} {
		resp, data = postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
			Tree: &TreeSpec{Family: "random", N: n, Seed: Seed(3)}, Host: HostUniversal,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("universal n=%d status %d: %s", n, resp.StatusCode, data)
		}
		un := decodeEmbed(t, data).Items[0]
		size := core.Capacity(core.OptimalHeight(n))
		if un.Error != "" || un.Host != HostUniversal || un.N != n || un.Dilation != 1 || un.AvgDilation != 1 ||
			un.MaxLoad != 1 || un.HostVertices != size || un.Expansion != float64(size)/float64(n) {
			t.Errorf("universal n=%d: item %+v, want %d host vertices", n, un, size)
		}
	}

	resp, data = postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "zigzag", N: 240, Seed: Seed(1)}, Injective: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("injective status %d: %s", resp.StatusCode, data)
	}
	inj := decodeEmbed(t, data).Items[0]
	if inj.Injective == nil {
		t.Fatal("no injective derivation in response")
	}
	if inj.Injective.Dilation > 11 || inj.Injective.MaxLoad != 1 {
		t.Errorf("Theorem 2 bounds violated over the wire: %+v", inj.Injective)
	}
}

// TestEmbedWithHeightUsesProfileEngine: a height-pinned request runs
// under its own profile key in the one engine — it is cached, its
// entry never answers the default options, and an isomorphic repeat is
// a cache hit.
func TestEmbedWithHeightUsesProfileEngine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "path", N: 100, Seed: Seed(1)}, Height: 8,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	it := decodeEmbed(t, data).Items[0]
	if it.Height != 8 {
		t.Errorf("forced height not honored: %+v", it)
	}
	if st := s.eng.Stats(); st.Submitted != 1 || st.Misses != 1 || st.CacheLen != 1 {
		t.Fatalf("height-pinned request bypassed the engine cache: %+v", st)
	}
	// An isomorphic repeat is answered from that profile's entry.
	resp, data = postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "path", N: 100, Seed: Seed(9)}, Height: 8,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, data)
	}
	if it := decodeEmbed(t, data).Items[0]; !it.CacheHit || it.Height != 8 {
		t.Errorf("isomorphic height-pinned repeat: %+v, want a cache hit on X(8)", it)
	}
	// The default options never see the height=8 entry.
	resp, data = postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "path", N: 100, Seed: Seed(1)},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("default status %d: %s", resp.StatusCode, data)
	}
	if it := decodeEmbed(t, data).Items[0]; it.CacheHit || it.Height == 8 {
		t.Errorf("default request answered from the height=8 entry: %+v", it)
	}
}

func TestEmbedValidation4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2, MaxTreeNodes: 1000})
	cases := []struct {
		name string
		body string
		want int
		code string
	}{
		{"bad json", `{`, 400, CodeInvalidRequest},
		{"unknown field", `{"treez": {}}`, 400, CodeInvalidRequest},
		{"no tree", `{}`, 400, CodeInvalidRequest},
		{"both tree and trees", `{"tree":{"family":"path","n":3},"trees":[{"family":"path","n":3}]}`, 400, CodeInvalidRequest},
		{"unknown family", `{"tree":{"family":"bamboo","n":3}}`, 400, CodeInvalidRequest},
		{"unknown host", `{"tree":{"family":"path","n":3},"host":"torus"}`, 400, CodeInvalidRequest},
		{"strict on hypercube", `{"tree":{"family":"path","n":3},"host":"hypercube","strict":true}`, 400, CodeInvalidRequest},
		{"batch too large", `{"trees":[{"family":"path","n":3},{"family":"path","n":3},{"family":"path","n":3}]}`, 400, CodeInvalidRequest},
		{"tree too large", `{"tree":{"family":"path","n":5000}}`, 400, CodeInvalidRequest},
		{"bad encoding", `{"tree":{"encoded":"((("}}`, 400, CodeInvalidRequest},
		{"encoded and family", `{"tree":{"encoded":"(..)","family":"path","n":3}}`, 400, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/embed", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, data)
			}
			var eb ErrorBody
			if err := json.Unmarshal(data, &eb); err != nil {
				t.Fatalf("error body not structured: %s", data)
			}
			if eb.Error.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", eb.Error.Code, tc.code, eb.Error.Message)
			}
		})
	}
}

// TestEmbedHeightBounded: a pinned host height is bounded by the tree
// cap.  The embedder's host arrays grow as 2^height whatever the guest's
// size, and they are allocated on an engine worker, where no recover
// runs, so an unbounded height would crash the server.  The limit is
// OptimalHeight(max-tree) + 4 and moves with the cap.
func TestEmbedHeightBounded(t *testing.T) {
	for _, maxTree := range []int{0, 1000} {
		_, ts := newTestServer(t, Config{MaxTreeNodes: maxTree})
		if maxTree == 0 {
			maxTree = DefaultMaxTreeNodes
		}
		limit := core.OptimalHeight(maxTree) + 4
		for _, height := range []int{58, limit + 1, limit} {
			resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
				Tree: &TreeSpec{Family: "path", N: 10}, Height: height,
			})
			if height > limit {
				var eb ErrorBody
				if resp.StatusCode != 400 || json.Unmarshal(data, &eb) != nil || eb.Error.Code != CodeInvalidRequest {
					t.Errorf("max-tree %d, height %d: status %d %s, want 400 %s", maxTree, height, resp.StatusCode, data, CodeInvalidRequest)
				}
				continue
			}
			if resp.StatusCode != 200 {
				t.Fatalf("max-tree %d, height %d (the limit): status %d: %s", maxTree, height, resp.StatusCode, data)
			}
			if it := decodeEmbed(t, data).Items[0]; it.Error != "" || it.Height != limit {
				t.Errorf("max-tree %d: the limit answered %+v, want X(%d)", maxTree, it, limit)
			}
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("max-tree %d: healthz status %d after the height requests", maxTree, resp.StatusCode)
		}
	}
}

func TestEmbedMethodNotAllowedAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/embed")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/embed status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope status %d", resp.StatusCode)
	}
}

func TestEmbedBodyTooLarge413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := EmbedRequest{Tree: &TreeSpec{Encoded: bintree.CompleteN(255).Encode()}}
	resp, data := postJSON(t, ts.URL+"/v1/embed", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != CodePayloadTooLarge {
		t.Errorf("413 body: %s", data)
	}
}

func TestSimulateWithBaselineAndFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Tree:     &TreeSpec{Family: "complete", N: 255, Seed: Seed(1)},
		Workload: WorkloadDivideConquer,
		Waves:    1,
		Baseline: true,
		Faults:   &FaultSpec{Seed: 4, DropProb: 0.05, MaxRetries: 20},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Embed.Dilation > 3 || sr.Embed.MaxLoad > 16 {
		t.Errorf("embed part %+v", sr.Embed)
	}
	if sr.Sim.Cycles == 0 || sr.Sim.Delivered == 0 {
		t.Errorf("sim part %+v", sr.Sim)
	}
	if sr.Sim.Drops == 0 || sr.Sim.Retransmits == 0 {
		t.Errorf("fault plan injected nothing: %+v", sr.Sim)
	}
	if sr.IdealCycles == 0 || sr.Slowdown <= 0 {
		t.Errorf("baseline not reported: ideal=%d slowdown=%v", sr.IdealCycles, sr.Slowdown)
	}
	// Determinism over the wire: the same request gives the same counters.
	resp2, data2 := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Tree:     &TreeSpec{Family: "complete", N: 255, Seed: Seed(1)},
		Workload: WorkloadDivideConquer,
		Waves:    1,
		Baseline: true,
		Faults:   &FaultSpec{Seed: 4, DropProb: 0.05, MaxRetries: 20},
	})
	if resp2.StatusCode != 200 {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	var sr2 SimulateResponse
	if err := json.Unmarshal(data2, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Sim != sr.Sim {
		t.Errorf("simulate not deterministic: %+v vs %+v", sr.Sim, sr2.Sim)
	}
}

// TestSimulateBaselineLargeGuest pins the baseline beyond the 4096-vertex
// routing-table cap: the ideal machine of an 8176-node guest is a tree,
// which routes without tables, so the request answers 200 with the
// slowdown like any smaller one.
func TestSimulateBaselineLargeGuest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Tree:     &TreeSpec{Family: "random", N: 8176, Seed: Seed(1)},
		Workload: WorkloadBroadcast,
		Baseline: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sim.Delivered != 8175 {
		t.Errorf("broadcast delivered %d of 8175 messages", sr.Sim.Delivered)
	}
	if sr.IdealCycles <= 0 || sr.Slowdown <= 0 {
		t.Errorf("baseline not reported: ideal=%d slowdown=%v", sr.IdealCycles, sr.Slowdown)
	}
}

// TestSimulateAboveTableCap simulates the smallest complete tree whose
// optimal host, X(12) with 8,191 vertices, is too large for next-hop
// tables: the run routes in closed form, so it answers like any other.
func TestSimulateAboveTableCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Tree:     &TreeSpec{Family: "complete", N: 65521, Seed: Seed(1)},
		Workload: WorkloadBroadcast,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Embed.Height != 12 || sr.Sim.Delivered != 65520 {
		t.Errorf("host X(%d), broadcast delivered %d of 65520 messages", sr.Embed.Height, sr.Sim.Delivered)
	}
}

// TestSimulatePartitionedMatchesSingle runs one fault-injected request
// single-process and sharded over 4 epoch-barrier workers: the counters
// must be identical, the sharded response must break the run down by
// shard, and the xtreesim_dist_* families must be live.  Shards hand
// boundary records over as Go values, so neither the response nor
// /metrics reports a byte count.
func TestSimulatePartitionedMatchesSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	run := func(partitions int) (SimulateResponse, []byte) {
		resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
			Tree:       &TreeSpec{Family: "random", N: 600, Seed: Seed(7)},
			Workload:   WorkloadDivideConquer,
			Waves:      2,
			Faults:     &FaultSpec{Seed: 5, DropProb: 0.02, CorruptProb: 0.02},
			Partitions: partitions,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("partitions=%d: status %d: %s", partitions, resp.StatusCode, data)
		}
		var sr SimulateResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		return sr, data
	}
	single, _ := run(0)
	dist, distBody := run(4)
	var raw struct {
		Dist map[string]json.RawMessage `json:"dist"`
	}
	if err := json.Unmarshal(distBody, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.Dist["boundary_bytes"]; ok {
		t.Errorf("dist reports boundary_bytes: %s", distBody)
	}
	if single.Dist != nil {
		t.Errorf("single-process response carries dist info: %+v", single.Dist)
	}
	if single.Sim != dist.Sim {
		t.Fatalf("partitioned counters diverge:\n single: %+v\n dist:   %+v", single.Sim, dist.Sim)
	}
	di := dist.Dist
	if di == nil || di.Partitions != 4 || len(di.Shards) != 4 || di.BoundaryMessages <= 0 {
		t.Fatalf("partitioned response lacks the shard breakdown: %+v", di)
	}
	hops := 0
	for i, sh := range di.Shards {
		if sh.Vertices <= 0 || sh.Links <= 0 {
			t.Errorf("shard %d owns nothing: %+v", i, sh)
		}
		hops += sh.Hops
	}
	if hops != dist.Sim.HopsTotal {
		t.Errorf("shard hops sum to %d, result says %d", hops, dist.Sim.HopsTotal)
	}

	// A host smaller than the request's shard count runs one shard per
	// vertex, and the response and the metrics report the count that ran:
	// a 5-node guest fits X(0), a single vertex.
	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Tree: &TreeSpec{Family: "complete", N: 5}, Workload: WorkloadBroadcast, Partitions: 4})
	var tiny SimulateResponse
	if resp.StatusCode != 200 || json.Unmarshal(data, &tiny) != nil {
		t.Fatalf("5-node guest at 4 partitions: status %d: %s", resp.StatusCode, data)
	}
	if di := tiny.Dist; di == nil || di.Partitions != 1 || len(di.Shards) != 1 {
		t.Errorf("5-node guest at 4 partitions reports %s, want one shard", data)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`xtreesim_dist_runs_total{partitions="4"} 1`,
		`xtreesim_dist_runs_total{partitions="1"} 1`,
		"xtreesim_dist_boundary_messages_total",
		`xtreesim_dist_partition_hops_total{partition="0"}`,
		`xtreesim_dist_partition_boundary_out_total{partition="0"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The dist families are exactly these four: no byte count.
	var families []string
	for _, line := range strings.Split(string(text), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE xtreesim_dist_"); ok {
			families = append(families, strings.Fields(name)[0])
		}
	}
	if want := []string{"runs_total", "boundary_messages_total", "partition_hops_total",
		"partition_boundary_out_total"}; !slices.Equal(families, want) {
		t.Errorf("xtreesim_dist_* families %v, want %v", families, want)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"no workload":      `{"tree":{"family":"path","n":15}}`,
		"unknown workload": `{"tree":{"family":"path","n":15},"workload":"sort"}`,
		"bad drop prob":    `{"tree":{"family":"path","n":15},"workload":"broadcast","faults":{"drop_prob":2}}`,
		"bad link kill":    `{"tree":{"family":"path","n":15},"workload":"broadcast","faults":{"link_kills":[{"u":0,"v":9999,"cycle":1}]}}`,
		"over-cap partitions": `{"tree":{"family":"path","n":15},"workload":"broadcast","partitions":` +
			strconv.Itoa(MaxSimPartitions+1) + `}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 400 {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
			}
		})
	}
}

func TestSimulateScanWorkloadCompletes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Tree:     &TreeSpec{Family: "random", N: 240, Seed: Seed(5)},
		Workload: WorkloadScan,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sim.Delivered == 0 {
		t.Errorf("scan delivered nothing: %+v", sr.Sim)
	}
}

func TestDeadlineExceededMapsTo504(t *testing.T) {
	// A 1ns request timeout fires before the handler can embed.
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, data := postJSON(t, ts.URL+"/v1/embed", EmbedRequest{
		Tree: &TreeSpec{Family: "random", N: 1008, Seed: Seed(1)},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != CodeDeadlineExceeded {
		t.Errorf("504 body: %s", data)
	}
}

// TestTimeoutAndCancelCarryDistinctCodes pins the ctxError mapping: a
// 504 (server ran out of time — retry with a bigger budget) and a 503
// (client went away — nothing to retry) must be distinguishable by
// code, not just by status.
func TestTimeoutAndCancelCarryDistinctCodes(t *testing.T) {
	d := ctxError(context.DeadlineExceeded)
	if d.status != http.StatusGatewayTimeout || d.code != CodeDeadlineExceeded {
		t.Errorf("deadline maps to %d/%s, want 504/%s", d.status, d.code, CodeDeadlineExceeded)
	}
	c := ctxError(context.Canceled)
	if c.status != statusClientGone || c.code != CodeClientGone {
		t.Errorf("cancel maps to %d/%s, want %d/%s", c.status, c.code, statusClientGone, CodeClientGone)
	}
	if d.code == c.code {
		t.Error("timeout and client-gone share one code; retry policies cannot tell them apart")
	}
}

// TestQueuedClientGoneCode: a request whose client disappears while it
// waits in the admission queue answers 503 with the client_gone code,
// not deadline_exceeded.
func TestQueuedClientGoneCode(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1, Logger: log.New(io.Discard, "", 0)})
	defer s.eng.Close()
	// Occupy the only slot so the request must queue.
	if err := s.admit.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.admit.release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before a slot frees
	req := httptest.NewRequest("POST", "/v1/embed", strings.NewReader(`{}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.guarded("/v1/embed", s.handleEmbed).ServeHTTP(rec, req)
	if rec.Code != statusClientGone {
		t.Fatalf("status %d, want %d: %s", rec.Code, statusClientGone, rec.Body.String())
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeClientGone {
		t.Errorf("queued client-gone body: %s", rec.Body.String())
	}
}

// TestAdmissionShedding drives the admission controller directly: slot
// taken, queue slot taken, third caller shed; cancellation while queued
// returns the context error rather than shed.
func TestAdmissionShedding(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Queue slot: a second acquire waits; run it in a goroutine.
	queued := make(chan error, 1)
	go func() {
		queued <- a.acquire(context.Background())
	}()
	// Wait until it is actually queued.
	for a.queueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Third acquire: queue full → shed.
	if err := a.acquire(context.Background()); err != errShed {
		t.Fatalf("third acquire: %v, want errShed", err)
	}
	if a.shedTotal() != 1 {
		t.Errorf("shed counter %d", a.shedTotal())
	}
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.release()

	// Context cancellation while queued returns the ctx error, not shed.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(ctx) }()
	for a.queueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("cancelled queued acquire: %v", err)
	}
	a.release()
}

// TestAdmissionSheddingHTTP drives the full HTTP path: with one slot, no
// queue, and the slot busy, a flood of concurrent requests is shed with
// 429 + Retry-After; once the slot frees, the same request succeeds.  The
// test holds the slot itself, so the outcome does not depend on whether a
// request finishes before the next one arrives.
func TestAdmissionSheddingHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 0})
	if err := s.admit.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const flood = 12
	raw, _ := json.Marshal(EmbedRequest{Tree: &TreeSpec{Family: "random", N: 8000, Seed: Seed(7)}})
	type outcome struct {
		status     int
		retryAfter string
	}
	out := make(chan outcome, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(raw))
			if err != nil {
				out <- outcome{status: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	wg.Wait()
	close(out)
	var oks, sheds int
	for o := range out {
		switch o.status {
		case 200:
			oks++
		case 429:
			sheds++
			if o.retryAfter == "" {
				t.Error("429 without Retry-After")
			}
		case -1:
			t.Error("transport error")
		default:
			t.Errorf("unexpected status %d", o.status)
		}
	}
	s.admit.release()
	if resp, data := postJSON(t, ts.URL+"/v1/embed", json.RawMessage(raw)); resp.StatusCode == 200 {
		oks++
	} else {
		t.Errorf("request after the slot freed: status %d: %s", resp.StatusCode, data)
	}
	if oks != 1 || sheds != flood {
		t.Errorf("outcome ok=%d shed=%d; want the whole flood of %d shed, then one ok", oks, sheds, flood)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "metrics test v1"})
	// Generate some traffic first.
	postJSON(t, ts.URL+"/v1/embed", EmbedRequest{Tree: &TreeSpec{Family: "random", N: 496, Seed: Seed(1)}})
	postJSON(t, ts.URL+"/v1/embed", EmbedRequest{Tree: &TreeSpec{Family: "random", N: 496, Seed: Seed(1)}})
	http.Post(ts.URL+"/v1/embed", "application/json", strings.NewReader("{"))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	text := string(data)
	for _, want := range []string{
		`xtreesim_http_requests_total{route="/v1/embed",code="200"} 2`,
		`xtreesim_http_requests_total{route="/v1/embed",code="400"} 1`,
		"xtreesim_http_in_flight 0",
		"xtreesim_http_shed_total 0",
		"xtreesim_http_request_duration_seconds_bucket",
		"xtreesim_http_request_duration_seconds_count",
		`xtreesim_http_request_duration_quantile_seconds{quantile="0.99"}`,
		"xtreesim_engine_cache_hits_total 1",
		"xtreesim_engine_cache_misses_total 1",
		"xtreesim_engine_workers",
		"xtreesim_engine_utilization",
		"xtreesim_uptime_seconds",
		`xtreesim_build_info{version="metrics test v1"} 1`,
		"xtreesim_session_active 0",
		"xtreesim_sessions_started_total 0",
		"xtreesim_session_events_published_total 0",
		"xtreesim_session_streams_active 0",
		"xtreesim_telemetry_dropped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Well-formedness: every non-comment line is "name[{labels}] value".
	// Label values may legitimately contain spaces (build_info's version),
	// so cut the label block before field-splitting.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		check := line
		if i := strings.Index(check, "{"); i >= 0 {
			j := strings.LastIndex(check, "}")
			if j < i {
				t.Errorf("unbalanced labels in metric line %q", line)
				continue
			}
			check = check[:i] + check[j+1:]
		}
		if fields := strings.Fields(check); len(fields) != 2 {
			t.Errorf("malformed metric line %q", line)
		}
	}
}

// TestGracefulShutdownDrains starts a real listener, launches in-flight
// requests, shuts down mid-flight, and requires every admitted request
// to complete with 200 — the zero-dropped-requests guarantee.  A request
// whose connection loses the race against the listener close (refused,
// or accepted by the kernel but never read) never reaches a handler, so
// the guarantee is checked against the server's own request counter:
// every request a handler saw was answered 200, and every one of those
// answers reached its client.  Each request gets its own connection: a
// request sent on a kept-alive connection that Shutdown is closing as
// idle is lost by HTTP/1.1 design (the client must retry it), not a
// dropped in-flight request.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxQueue: 16})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	url := s.URL()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	const n = 8
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds keep the requests from collapsing into one
			// cached embedding, so the server is genuinely busy when the
			// shutdown lands.
			raw, _ := json.Marshal(EmbedRequest{Tree: &TreeSpec{Family: "random", N: 4000, Seed: Seed(int64(i) + 100)}})
			resp, err := client.Post(url+"/v1/embed", "application/json", bytes.NewReader(raw))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(i)
	}
	// Give the flood a moment to be accepted, then shut down under it.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(statuses)
	served, unreached := 0, 0
	for st := range statuses {
		switch st {
		case 200:
			served++
		case -1:
			unreached++
		default:
			t.Errorf("in-flight request finished with %d during graceful shutdown", st)
		}
	}
	handled := int64(0)
	for _, rc := range s.metrics.snapshotRequests() {
		if rc.route != "/v1/embed" {
			continue
		}
		handled += rc.count
		if rc.code != 200 {
			t.Errorf("server answered %d requests with %d during graceful shutdown", rc.count, rc.code)
		}
	}
	if handled != int64(served) {
		t.Errorf("server handled %d requests but %d answers reached their clients (%d transport errors)",
			handled, served, unreached)
	}
	if served == 0 {
		t.Error("no request was served before the shutdown; the test raced itself")
	}
	// Post-shutdown: the engine is closed; new work fails cleanly.
	if it := s.eng.EmbedBatch(context.Background(), []*bintree.Tree{bintree.Path(3)})[0]; it.Err != engine.ErrClosed {
		t.Errorf("engine after shutdown: %v, want ErrClosed", it.Err)
	}
	// Second shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("double shutdown: %v", err)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New(Config{Logger: log.New(io.Discard, "", 0)})
	defer s.eng.Close()
	h := s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic produced status %d", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeInternal {
		t.Errorf("panic body: %s", rec.Body.String())
	}
}
