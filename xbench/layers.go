package main

// layers.go turns the traced run's spans, the /metrics deltas and the
// clients' counts into the per-layer metrics of the prediction map.  A
// metric whose layer did no work on the workload reads 0.

import (
	"math"
	"sort"
)

// spanIndex groups spans for the per-layer arithmetic.
type spanIndex struct {
	byName   map[string][]*span
	children map[int][]*span
	roots    int
}

func indexSpans(spans []*span) *spanIndex {
	ix := &spanIndex{byName: map[string][]*span{}, children: map[int][]*span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent == 0 {
			ix.roots++
		} else {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// self is the span's duration minus its children's, reference
// measurements excluded.
func (ix *spanIndex) self(s *span) int64 {
	d := s.dur()
	for _, c := range ix.children[s.ID] {
		if c.Kind != kindRef {
			d -= c.dur()
		}
	}
	return d
}

func (ix *spanIndex) child(s *span, name string) *span {
	for _, c := range ix.children[s.ID] {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// perCall is the mean self time of the named spans in microseconds.
func (ix *spanIndex) perCall(name string) float64 {
	var ns int64
	for _, s := range ix.byName[name] {
		ns += ix.self(s)
	}
	return ratio(float64(ns)/1e3, float64(len(ix.byName[name])))
}

// perUnit is the named spans' total self time in ns over their Count.
func (ix *spanIndex) perUnit(name string) float64 {
	var ns, units int64
	for _, s := range ix.byName[name] {
		ns += ix.self(s)
		units += s.Count
	}
	return ratio(float64(ns), float64(units))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics computes the span-based metrics.  meanLatencyUS is the
// timed run's mean request latency, against which the traced layers'
// self times leave server.unattributed_us.
func tracedMetrics(spans []*span, meanLatencyUS float64) map[string]float64 {
	ix := indexSpans(spans)
	m := map[string]float64{}
	m["server.decode_us"] = ix.perCall("server.decode") // one decode and one encode per request
	m["server.encode_us"] = ix.perCall("server.encode")
	m["bintree.decode_us"] = ix.perCall("bintree.decode")
	m["bintree.canonical_us"] = ix.perCall("bintree.canonical")

	var hitNS, hitTrees, missNS, missTrees int64
	for _, s := range ix.byName["engine.embed_batch"] {
		switch s.Misses {
		case 0:
			hitNS, hitTrees = hitNS+ix.self(s), hitTrees+s.Count
		case s.Count:
			missNS, missTrees = missNS+ix.self(s), missTrees+s.Count
		}
	}
	m["engine.hit_us"] = ratio(float64(hitNS)/1e3, float64(hitTrees))
	m["engine.miss_us"] = ratio(float64(missNS)/1e3, float64(missTrees))

	m["core.embed_ns_per_node"] = ix.perUnit("core.embed_xtree")
	m["core.hypercube_us"] = ix.perCall("core.hypercube")
	m["core.injective_us"] = ix.perCall("core.injective")
	m["metrics.wire_xtree_us"] = ix.perCall("metrics.wire_xtree")
	m["metrics.wire_hypercube_us"] = ix.perCall("metrics.wire_hypercube")
	m["universal.build_us"] = ix.perCall("universal.build")
	m["universal.embed_us"] = ix.perCall("universal.embed")
	m["netsim.routing_us"] = ix.perCall("netsim.routing")
	m["netsim.baseline_us"] = ix.perCall("netsim.baseline")

	// netsim alone: single-process runs without observers, which for a
	// watched run is its unwatched reference less the routing tables.
	var pureNS, hops, pubNS, events int64
	runs := ix.byName["netsim.run"]
	for _, s := range runs {
		pure := ix.self(s)
		if ref := ix.child(s, "ref.unwatched"); ref != nil {
			pubNS += s.dur() - ref.dur()
			events += s.Events
			pure = ref.dur() - (s.dur() - ix.self(s))
		}
		pureNS += pure
		hops += s.Count
	}
	m["netsim.run_us"] = ratio(float64(pureNS)/1e3, float64(len(runs)))
	m["netsim.ns_per_hop"] = ratio(float64(pureNS), float64(hops))
	m["telemetry.publish_ns_per_event"] = ratio(float64(pubNS), float64(events))

	var distNS, singleNS, waitNS int64
	dist := ix.byName["distsim.run"]
	for _, s := range dist {
		distNS += s.dur()
		waitNS += s.WaitNS
		if ref := ix.child(s, "ref.single_process"); ref != nil {
			singleNS += ref.dur()
		}
	}
	m["distsim.overhead_ratio"] = ratio(float64(distNS), float64(singleNS))
	m["distsim.barrier_wait_us"] = ratio(float64(waitNS)/1e3, float64(len(dist)))
	m["telemetry.wire_ns_per_event"] = ix.perUnit("telemetry.wire")

	// Every layer span directly under a request root is on the request's
	// path and they do not overlap, so their durations sum to the traced
	// self times of one request.
	var layerNS int64
	for _, s := range spans {
		if s.Parent != 0 && s.Kind == "" && spans[s.Parent-1].Parent == 0 { // IDs are indexes + 1
			layerNS += s.dur()
		}
	}
	m["server.unattributed_us"] = meanLatencyUS - ratio(float64(layerNS)/1e3, float64(ix.roots))
	return m
}

// serverMetrics computes the per-layer metrics read from /metrics deltas
// and from what the clients counted.
func serverMetrics(v *serverView, st *loadStats) map[string]float64 {
	published := 0.0
	for _, n := range st.sessions {
		published += float64(n)
	}
	return map[string]float64{
		"server.shed_frac":             ratio(v.delta("xtreesim_http_shed_total"), float64(st.attempted)),
		"engine.hit_frac":              ratio(v.delta("xtreesim_engine_cache_hits_total"), v.lookups()),
		"engine.queue_wait_us":         queueWaitUS(v),
		"engine.evictions_per_miss":    ratio(v.delta("xtreesim_engine_cache_evictions_total"), v.delta("xtreesim_engine_cache_misses_total")),
		"telemetry.events_per_session": ratio(published, float64(st.streams)),
		"telemetry.dropped_frac":       ratio(v.delta("xtreesim_telemetry_dropped_total"), published),
		"telemetry.first_event_p50_ms": quantile(st.firstEvent, 0.5),
	}
}

// quantile is the nearest-rank quantile q of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(len(s), q), 1)-1]
}

// median is the middle value of xs, or the mean of the two middle values
// (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// rank is the 1-based nearest rank of quantile q among n samples; n-rank
// samples lie beyond it.
func rank(n int, q float64) int { return int(math.Ceil(float64(n)*q - 1e-9)) }
