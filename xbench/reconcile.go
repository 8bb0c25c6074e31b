package main

// reconcile.go compares the server's /metrics counters, scraped before and
// after the timed run, with what the clients counted.  A mismatch is a
// benchmark error; nothing is adjusted to make the two agree.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// serverView is the server's side of one timed run.
type serverView struct {
	before, after         promSample
	sessBefore, sessAfter sessionsResponse
	peakRSS               int64
	cacheShards           int
}

func (v *serverView) delta(name string) float64 { return v.after[name] - v.before[name] }

// lookups is the engine's hits + misses + coalesced delta.
func (v *serverView) lookups() float64 {
	return v.delta("xtreesim_engine_cache_hits_total") + v.delta("xtreesim_engine_cache_misses_total") +
		v.delta("xtreesim_engine_coalesced_total")
}

// apiResponses sums the request counters of the two API routes.
func apiResponses(p promSample) float64 {
	total := 0.0
	for k, v := range p.routeCounts() {
		if strings.HasPrefix(k, routeEmbed+" ") || strings.HasPrefix(k, routeSimulate+" ") {
			total += v
		}
	}
	return total
}

// waitQuiet waits until the server has recorded every response the
// clients received and no streaming session is still finishing: a handler
// counts its request only after the client has read the last byte.
func waitQuiet(ctx context.Context, srv *serverProc, before promSample, st *loadStats) (promSample, error) {
	want := apiResponses(before)
	for _, n := range st.codes {
		want += float64(n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, err := srv.scrape(ctx)
		if err != nil {
			return nil, err
		}
		var h healthResponse
		if err := srv.getJSON(ctx, "/healthz", &h); err != nil {
			return nil, err
		}
		if (apiResponses(after) == want && h.ActiveSessions == 0) || time.Now().After(deadline) {
			return after, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reconcile returns one message per counter that disagrees with the
// clients.
func reconcile(wl string, v *serverView, st *loadStats) []string {
	var errs []string
	mismatch := func(what string, server, client float64) {
		if server != client {
			errs = append(errs, fmt.Sprintf("%s: server %g, clients %g", what, server, client))
		}
	}

	// Requests per route and status code.
	b, a := v.before.routeCounts(), v.after.routeCounts()
	keys := map[string]bool{}
	for k := range st.codes {
		keys[k] = true
	}
	for k := range a {
		if strings.HasPrefix(k, routeEmbed+" ") || strings.HasPrefix(k, routeSimulate+" ") {
			keys[k] = true
		}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		mismatch("xtreesim_http_requests_total "+k, a[k]-b[k], float64(st.codes[k]))
	}
	mismatch("xtreesim_http_shed_total", v.delta("xtreesim_http_shed_total"),
		float64(st.codes[routeEmbed+" 429"]+st.codes[routeSimulate+" 429"]))

	// Every tree sent to an engine-backed host is exactly one lookup.
	mismatch("engine hits+misses+coalesced", v.lookups(), float64(st.engineTrees))
	if wl == wlEmbedCold {
		// The sequence never repeats a canonical code, so a hit means the
		// workload, not the server, is wrong.
		mismatch("embed-cold cache hits", v.delta("xtreesim_engine_cache_hits_total"), 0)
	}

	mismatch("xtreesim_sessions_started_total", v.delta("xtreesim_sessions_started_total"), float64(st.streams))
	mismatch("xtreesim_telemetry_dropped_total", v.delta("xtreesim_telemetry_dropped_total"), float64(st.dropped))

	// xtreesim_session_events_published_total sums the sessions the server
	// still lists (the live ones and the most recent finished ones), so
	// its delta is the listed sessions' events after the run minus those
	// listed before.  Each listed session's count must also equal the
	// events its client read plus the drops its markers reported.
	client := func(s sessionsResponse) float64 {
		total := 0.0
		for _, ss := range s.Sessions {
			n, ok := st.sessions[ss.ID]
			if !ok {
				errs = append(errs, fmt.Sprintf("listed session %s was never streamed by a client", ss.ID))
				continue
			}
			total += float64(n)
			mismatch("session "+ss.ID+" events", float64(ss.Events), float64(n))
		}
		return total
	}
	mismatch("xtreesim_session_events_published_total",
		v.delta("xtreesim_session_events_published_total"), client(v.sessAfter)-client(v.sessBefore))
	return errs
}

// queueWaitUS is the mean engine queue wait per job over the run, from
// the cumulative mean and the completed-job counter.
func queueWaitUS(v *serverView) float64 {
	const avg, done = "xtreesim_engine_avg_queue_wait_seconds", "xtreesim_engine_jobs_completed_total"
	jobs := v.delta(done)
	if jobs == 0 {
		return 0
	}
	return (v.after[avg]*v.after[done] - v.before[avg]*v.before[done]) / jobs * 1e6
}
