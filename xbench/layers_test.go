package main

import (
	"math"
	"testing"
)

// spanSet builds spans with explicit IDs and times in microseconds.
type spanSet []*span

func (ss *spanSet) add(parent int, name, kind string, startUS, endUS int64) *span {
	s := &span{ID: len(*ss) + 1, Parent: parent, Name: name, Kind: kind, Start: startUS * 1000, End: endUS * 1000}
	*ss = append(*ss, s)
	return s
}

func TestTracedMetricsSubtractInnerCalls(t *testing.T) {
	var ss spanSet
	// A hit: the engine span holds a separately timed canonical encode.
	root := ss.add(0, "request", "", 0, 1000)
	ss.add(root.ID, "server.decode", "", 0, 10)
	eng := ss.add(root.ID, "engine.embed_batch", "", 10, 110)
	eng.Count = 1
	ss.add(eng.ID, "bintree.canonical", kindInner, 500, 560).Count = 1008
	ss.add(root.ID, "metrics.wire_xtree", "", 110, 310)
	ss.add(root.ID, "server.encode", "", 310, 330)
	// A watched single-process run with its routing and unwatched reference.
	root2 := ss.add(0, "request", "", 1000, 3000)
	run := ss.add(root2.ID, "netsim.run", "", 1000, 1700)
	run.Count, run.Events = 1000, 500
	ss.add(run.ID, "netsim.routing", kindInner, 1700, 1800)
	ss.add(run.ID, "ref.unwatched", kindRef, 1800, 2400)
	// A partitioned run and its single-process reference.
	dist := ss.add(root2.ID, "distsim.run", "", 2400, 2800)
	dist.WaitNS = 30000
	ss.add(dist.ID, "netsim.routing", kindInner, 2800, 2900)
	ss.add(dist.ID, "ref.single_process", kindRef, 2900, 3100)

	m := tracedMetrics(ss, 1000)
	want := map[string]float64{
		"engine.hit_us":                  40, // 100 - 60 of canonical encode
		"bintree.canonical_us":           60,
		"metrics.wire_xtree_us":          200,
		"netsim.routing_us":              100, // mean of the two routing spans
		"netsim.run_us":                  500, // unwatched 600 less its 100 of routing
		"netsim.ns_per_hop":              500,
		"telemetry.publish_ns_per_event": 200, // (700 - 600) us over 500 events
		"distsim.overhead_ratio":         2,
		"distsim.barrier_wait_us":        30,
		"server.decode_us":               10, // one request decodes
		// 1000 us mean latency less the 330 and 1100 us of layer spans
		// directly under the two roots.
		"server.unattributed_us": 1000 - (330+1100)/2.0,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			if _, fromServer := serverMetrics(&serverView{}, newLoadStats())[d.name]; !fromServer {
				t.Errorf("per-layer metric %s is computed nowhere", d.name)
			}
		}
	}
}

const promBefore = `# HELP xtreesim_http_requests_total x
xtreesim_http_requests_total{route="/healthz",code="200"} 3
xtreesim_http_requests_total{route="/v1/embed",code="200"} 10
xtreesim_engine_cache_hits_total 5
xtreesim_engine_cache_misses_total 5
xtreesim_engine_coalesced_total 0
xtreesim_engine_avg_queue_wait_seconds 0.001
xtreesim_engine_jobs_completed_total 10
xtreesim_sessions_started_total 0
xtreesim_session_events_published_total 0
xtreesim_telemetry_dropped_total 0
xtreesim_http_shed_total 0
`

const promAfter = `xtreesim_http_requests_total{route="/healthz",code="200"} 9
xtreesim_http_requests_total{route="/v1/embed",code="200"} 13
xtreesim_http_requests_total{route="/v1/simulate",code="200"} 2
xtreesim_engine_cache_hits_total 9
xtreesim_engine_cache_misses_total 5
xtreesim_engine_coalesced_total 1
xtreesim_engine_avg_queue_wait_seconds 0.002
xtreesim_engine_jobs_completed_total 20
xtreesim_sessions_started_total 1
xtreesim_session_events_published_total 40
xtreesim_telemetry_dropped_total 2
xtreesim_http_shed_total 0
`

func TestReconcile(t *testing.T) {
	before, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	v := &serverView{before: before, after: after}
	v.sessAfter.Sessions = append(v.sessAfter.Sessions, struct {
		ID     string `json:"id"`
		Events uint64 `json:"events"`
	}{"s-1", 40})
	st := newLoadStats()
	st.codes["/v1/embed 200"] = 3
	st.codes["/v1/simulate 200"] = 2
	st.engineTrees, st.streams, st.dropped = 5, 1, 2
	st.sessions["s-1"] = 40
	if errs := reconcile(wlSimulate, v, st); len(errs) != 0 {
		t.Fatalf("clean run reported %v", errs)
	}
	// (0.002*20 - 0.001*10) s over 10 jobs.
	if got := queueWaitUS(v); math.Abs(got-3000) > 1e-6 {
		t.Errorf("queue wait %g us, want 3000", got)
	}

	st.codes["/v1/embed 200"] = 4
	st.sessions["s-1"] = 39
	st.engineTrees = 6
	if errs := reconcile(wlSimulate, v, st); len(errs) != 4 {
		t.Errorf("three counters and one session disagree; got %d errors: %v", len(errs), errs)
	}
	if errs := reconcile(wlEmbedCold, v, st); len(errs) != 5 {
		t.Errorf("embed-cold also rejects cache hits; got %d errors: %v", len(errs), errs)
	}
}
