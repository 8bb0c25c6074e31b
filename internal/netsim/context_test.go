package netsim

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xtreesim/internal/bintree"
)

func TestRunContextCancelled(t *testing.T) {
	tr := bintree.CompleteN(127)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())},
		NewDivideConquer(tr, 4))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	tr := bintree.CompleteN(63)
	a, err := Run(Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())}, NewBroadcast(tr))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(),
		Config{Host: tr.AsGraph(), Place: IdentityPlacement(tr.N())}, NewBroadcast(tr))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Run %+v != RunContext %+v", a, b)
	}
}

// cancelAt cancels the run's context when cycle at starts.
type cancelAt struct {
	NopObserver
	at     int
	cancel context.CancelFunc
}

func (c cancelAt) OnCycleStart(ci CycleInfo) {
	if ci.Cycle == c.at {
		c.cancel()
	}
}

// TestNoGoroutineOutlivesARun holds every runner to its goroutines: a run
// through RunContext, or through RunSharded at 1, 2 and 4 shards, returns
// with the goroutine count back where it started, whether the workload
// completes, the run fails, its context is cancelled mid-run or the cycle
// cap stops it.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	tr := bintree.CompleteN(31)
	host := tr.AsGraph()
	base := func(context.CancelFunc) Config { return Config{Host: host, Place: IdentityPlacement(tr.N())} }
	endings := []struct {
		name  string
		cfg   func(cancel context.CancelFunc) Config
		wl    func() Workload
		check func(error) bool
	}{
		{"completed", base, func() Workload { return NewDivideConquer(tr, 2) },
			func(err error) bool { return err == nil }},
		{"error", base, func() Workload { return stuckWorkload{} },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "quiescent") }},
		{"cancelled", func(cancel context.CancelFunc) Config {
			cfg := base(cancel)
			cfg.Observers = []Observer{cancelAt{at: 3, cancel: cancel}}
			return cfg
		}, func() Workload { return NewDivideConquer(tr, 4) },
			func(err error) bool { return err == context.Canceled }},
		{"cycle cap", func(cancel context.CancelFunc) Config {
			cfg := base(cancel)
			cfg.MaxCycles = 50
			return cfg
		}, func() Workload { return pingPong{} },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "no quiescence") }},
	}
	runners := map[string]func(context.Context, Config, Workload) error{
		"RunContext": func(ctx context.Context, cfg Config, wl Workload) error {
			_, err := RunContext(ctx, cfg, wl)
			return err
		},
	}
	for _, shards := range []int{1, 2, 4} {
		owner := make([]int32, host.N())
		for v := range owner {
			owner[v] = int32(v * shards / host.N())
		}
		runners[fmt.Sprintf("RunSharded/%d", shards)] = func(ctx context.Context, cfg Config, wl Workload) error {
			_, _, err := RunSharded(ctx, cfg, wl, Sharding{Shards: shards, Owner: owner})
			return err
		}
	}
	for name, run := range runners {
		for _, e := range endings {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			err := run(ctx, e.cfg(cancel), e.wl())
			cancel()
			if !e.check(err) {
				t.Fatalf("%s, %s: unexpected ending %v", name, e.name, err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("%s, %s: %d goroutines before the run, %d after", name, e.name, before, g)
			}
		}
	}
}
