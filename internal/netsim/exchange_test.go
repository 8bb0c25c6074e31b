package netsim

import (
	"math/rand"
	"testing"

	"xtreesim/internal/bintree"
	"xtreesim/internal/core"
)

func TestExchangeOnIdealMachine(t *testing.T) {
	// On the guest's own topology every token is one hop, so a round
	// takes exactly one cycle: R rounds = R cycles.
	for _, rounds := range []int{1, 3, 7} {
		tr := bintree.Complete(4)
		res := runOnTree(t, tr, NewExchange(tr, rounds))
		if res.Cycles != rounds {
			t.Errorf("rounds=%d: makespan %d", rounds, res.Cycles)
		}
		// 2 tokens per edge per round.
		if want := rounds * 2 * (tr.N() - 1); res.Delivered != want {
			t.Errorf("rounds=%d: delivered %d, want %d", rounds, res.Delivered, want)
		}
	}
}

func TestExchangeSingleNode(t *testing.T) {
	tr := bintree.Path(1)
	res := runOnTree(t, tr, NewExchange(tr, 5))
	if res.Cycles != 0 {
		t.Errorf("single-node exchange ran %d cycles", res.Cycles)
	}
}

func TestExchangeOnPath(t *testing.T) {
	tr := bintree.Path(10)
	res := runOnTree(t, tr, NewExchange(tr, 4))
	if res.Cycles != 4 {
		t.Errorf("path exchange makespan %d, want 4", res.Cycles)
	}
}

// TestExchangeOnXTreeMeasuresDilation runs the halo exchange through the
// Monien embedding: the per-round cost is bounded by a small constant
// (dilation plus queuing at 16-guest processors), not by the tree size.
func TestExchangeOnXTreeMeasuresDilation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, f := range []bintree.Family{bintree.FamilyComplete, bintree.FamilyRandom} {
		tr, err := bintree.Generate(f, int(core.Capacity(4)), rng)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 5
		res, err := Run(embeddedXTreeConfig(t, tr), NewExchange(tr, rounds))
		if err != nil {
			t.Fatal(err)
		}
		perRound := float64(res.Cycles) / rounds
		t.Logf("%s: %d cycles for %d rounds (%.1f per round)", f, res.Cycles, rounds, perRound)
		// 16 guests per vertex × degree-3 guests ⇒ up to ~48 tokens
		// leave one vertex per round over ≤5 links; a generous constant
		// bound that does not grow with n is the claim.
		if perRound > 64 {
			t.Errorf("%s: per-round cost %.1f too large", f, perRound)
		}
	}
}

func TestExchangeRoundsNeverSkew(t *testing.T) {
	// The panic inside OnMessage guards the ≤1 round skew protocol
	// invariant; run a bigger randomized instance to exercise it.
	rng := rand.New(rand.NewSource(72))
	tr := bintree.RandomAttachment(300, rng)
	if _, err := Run(embeddedXTreeConfig(t, tr), NewExchange(tr, 10)); err != nil {
		t.Fatal(err)
	}
}
