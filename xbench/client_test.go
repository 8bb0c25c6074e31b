package main

import (
	"context"
	"io"
	"log"
	"net/http"
	"testing"
	"time"

	"xtreesim/internal/server"
)

// The clients, the answer check and the reconciliation against a real
// server: a short closed-loop run must answer correctly and reconcile.
func TestLoadAgainstInProcessServer(t *testing.T) {
	for _, name := range []string{wlEmbedHot, wlSimulate} {
		t.Run(name, func(t *testing.T) {
			s := server.New(server.Config{Logger: log.New(io.Discard, "", 0)})
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			ctx := context.Background()
			sp := &serverProc{url: s.URL(), http: &http.Client{Timeout: time.Minute}}
			w := mustWorkload(t, name, 9)
			chk := newChecker()
			if err := warmUp(ctx, sp, w, chk); err != nil {
				t.Fatal(err)
			}
			v := &serverView{}
			var err error
			if v.before, err = sp.scrape(ctx); err != nil {
				t.Fatal(err)
			}
			if err := sp.getJSON(ctx, "/v1/sessions", &v.sessBefore); err != nil {
				t.Fatal(err)
			}
			st := runLoad(ctx, sp.url, 2, w, chk, time.Now(), 300*time.Millisecond)
			if v.after, err = waitQuiet(ctx, sp, v.before, st); err != nil {
				t.Fatal(err)
			}
			if err := sp.getJSON(ctx, "/v1/sessions", &v.sessAfter); err != nil {
				t.Fatal(err)
			}
			if st.ok == 0 || st.failed != 0 {
				t.Fatalf("%d ok, %d failed: %v", st.ok, st.failed, st.errors)
			}
			if errs := reconcile(name, v, st); len(errs) != 0 {
				t.Fatalf("reconciliation: %v", errs)
			}
		})
	}
}
