package rost

import (
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

func refFixture(t *testing.T) (*overlay.Tree, *Referees) {
	t.Helper()
	env := testEnv(42)
	tree, err := overlay.NewTree(0, 100, env.Delay)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReferees(tree, xrand.New(9))
	return tree, r
}

func addMember(t *testing.T, tree *overlay.Tree, r *Referees, attach topology.NodeID, bw float64, now time.Duration) *overlay.Member {
	t.Helper()
	m := tree.NewMember(attach, bw, now)
	if err := tree.Attach(m, tree.Root()); err != nil {
		t.Fatal(err)
	}
	r.Enroll(m, now)
	return m
}

func TestHonestClaimAccepted(t *testing.T) {
	tree, r := refFixture(t)
	for i := 0; i < 10; i++ {
		addMember(t, tree, r, topology.NodeID(i), 2, 0)
	}
	m := addMember(t, tree, r, 99, 4, 10*time.Second)
	now := 500 * time.Second
	if !r.VerifyBTP(m, r.ClaimedBTP(m, now), now) {
		t.Fatal("honest claim rejected")
	}
	if r.Rejections != 0 {
		t.Fatalf("Rejections = %d, want 0", r.Rejections)
	}
}

func TestCheaterCaught(t *testing.T) {
	tree, r := refFixture(t)
	for i := 0; i < 10; i++ {
		addMember(t, tree, r, topology.NodeID(i), 2, 0)
	}
	cheat := addMember(t, tree, r, 99, 1, 100*time.Second)
	r.MarkCheater(cheat.ID, 10)
	now := 200 * time.Second
	claimed := r.ClaimedBTP(cheat, now)
	if claimed <= cheat.BTP(now) {
		t.Fatal("cheat mark did not inflate the claim")
	}
	if r.VerifyBTP(cheat, claimed, now) {
		t.Fatal("inflated claim accepted")
	}
	if r.Rejections != 1 {
		t.Fatalf("Rejections = %d, want 1", r.Rejections)
	}
	// Clearing the mark restores honesty.
	r.MarkCheater(cheat.ID, 1)
	if !r.VerifyBTP(cheat, r.ClaimedBTP(cheat, now), now) {
		t.Fatal("honest claim rejected after clearing cheat mark")
	}
}

func TestEnrollIdempotent(t *testing.T) {
	tree, r := refFixture(t)
	for i := 0; i < 5; i++ {
		addMember(t, tree, r, topology.NodeID(i), 2, 0)
	}
	m := addMember(t, tree, r, 50, 2, 10*time.Second)
	// Re-enrolling later (e.g. after a failure rejoin) must not reset the
	// witnessed join time.
	r.Enroll(m, 500*time.Second)
	rec := r.records[m.ID]
	if rec.witnessedJoin != 10*time.Second {
		t.Fatalf("witnessedJoin = %v after re-enroll, want 10s", rec.witnessedJoin)
	}
}

func TestRefereeReplacement(t *testing.T) {
	tree, r := refFixture(t)
	var pool []*overlay.Member
	for i := 0; i < 20; i++ {
		pool = append(pool, addMember(t, tree, r, topology.NodeID(i), 2, 0))
	}
	m := addMember(t, tree, r, 99, 3, 0)
	rec := r.records[m.ID]
	if len(rec.ageReferees) != DefaultAgeReferees {
		t.Fatalf("age referees = %d, want %d", len(rec.ageReferees), DefaultAgeReferees)
	}
	// Kill one age referee (but not all): verification must heal the set and
	// keep the original witnessed join time.
	victimID := rec.ageReferees[0]
	var victim *overlay.Member
	for _, c := range pool {
		if c.ID == victimID {
			victim = c
		}
	}
	if victim == nil {
		t.Fatal("referee not in pool") // referees are drawn from live members
	}
	if _, err := tree.Remove(victim); err != nil {
		t.Fatal(err)
	}
	r.Forget(victim.ID)
	if !r.VerifyBTP(m, m.BTP(100*time.Second), 100*time.Second) {
		t.Fatal("claim rejected during referee replacement")
	}
	if r.Replacements == 0 {
		t.Fatal("no replacement recorded")
	}
	rec = r.records[m.ID]
	if rec.witnessedJoin != 0 {
		t.Fatal("partial referee loss must not reset age")
	}
	for _, id := range rec.ageReferees {
		if tree.Member(id) == nil {
			t.Fatal("dead referee left in set")
		}
	}
}

func TestAgeResetWhenAllRefereesDie(t *testing.T) {
	tree, r := refFixture(t)
	var pool []*overlay.Member
	for i := 0; i < 20; i++ {
		pool = append(pool, addMember(t, tree, r, topology.NodeID(i), 2, 0))
	}
	m := addMember(t, tree, r, 99, 3, 0)
	rec := r.records[m.ID]
	dead := make(map[overlay.MemberID]bool)
	for _, id := range rec.ageReferees {
		dead[id] = true
	}
	for _, c := range pool {
		if dead[c.ID] {
			if _, err := tree.Remove(c); err != nil {
				t.Fatal(err)
			}
			r.Forget(c.ID)
		}
	}
	now := 300 * time.Second
	// The member's true age is 300 s but its provable age collapses to zero,
	// so a truthful-age claim is now rejected.
	if r.VerifyBTP(m, m.BTP(now), now) {
		t.Fatal("claim accepted with no surviving age witnesses")
	}
	if r.AgeResets != 1 {
		t.Fatalf("AgeResets = %d, want 1", r.AgeResets)
	}
	// From the reset point the member re-accumulates provable age.
	later := now + 500*time.Second
	provable := r.records[m.ID].measuredBW * (later - now).Seconds()
	if !r.VerifyBTP(m, provable*0.99, later) {
		t.Fatal("claim within re-accumulated age rejected")
	}
}

func TestVerifyUnknownMemberEnrollsFresh(t *testing.T) {
	tree, r := refFixture(t)
	for i := 0; i < 5; i++ {
		addMember(t, tree, r, topology.NodeID(i), 2, 0)
	}
	m := tree.NewMember(99, 3, 0)
	if err := tree.Attach(m, tree.Root()); err != nil {
		t.Fatal(err)
	}
	// Never enrolled: a claim matching a fresh (zero-age) BTP passes, an
	// aged claim does not.
	now := 100 * time.Second
	if r.VerifyBTP(m, m.BTP(now), now) {
		t.Fatal("aged claim accepted for unenrolled member")
	}
	if !r.VerifyBTP(m, 0, now) {
		t.Fatal("zero claim rejected for freshly enrolled member")
	}
}

// TestCheaterCannotClimb runs ROST with referees enabled and a marked
// cheater: the cheater advertises 50x its true BTP but must never displace
// its honest parent.
func TestCheaterCannotClimb(t *testing.T) {
	env := testEnv(11)
	tree, err := overlay.NewTree(0, 1, env.Delay)
	if err != nil {
		t.Fatal(err)
	}
	refs := NewReferees(tree, xrand.New(3))
	p := New(tree, env, Config{SwitchInterval: 60 * time.Second, Referees: refs})
	sim := eventsim.New()

	var parent, cheat *overlay.Member
	sim.Schedule(0, func(s *eventsim.Simulator) {
		parent = tree.NewMember(1, 2, 0)
		if err := p.Join(tree, parent, 0); err != nil {
			t.Errorf("parent join: %v", err)
		}
		p.Start(s, parent)
	})
	sim.Schedule(10*time.Second, func(s *eventsim.Simulator) {
		cheat = tree.NewMember(2, 2, s.Now()) // equal bandwidth: guard passes
		if err := p.Join(tree, cheat, s.Now()); err != nil {
			t.Errorf("cheat join: %v", err)
		}
		refs.MarkCheater(cheat.ID, 50)
		p.Start(s, cheat)
	})
	if err := sim.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if cheat.Parent() != parent {
		t.Fatal("cheater climbed above its honest parent")
	}
	if p.Rejected == 0 {
		t.Fatal("no claims rejected despite a persistent cheater")
	}
	// Control: the same scenario without referees lets the false claim win.
	env2 := testEnv(11)
	tree2, err := overlay.NewTree(0, 1, env2.Delay)
	if err != nil {
		t.Fatal(err)
	}
	refs2 := NewReferees(tree2, xrand.New(3))
	// Referees drive the claims but are not wired into the protocol, so
	// nothing verifies them.
	p2 := New(tree2, env2, Config{SwitchInterval: 60 * time.Second})
	_ = refs2
	sim2 := eventsim.New()
	var parent2, cheat2 *overlay.Member
	sim2.Schedule(0, func(s *eventsim.Simulator) {
		parent2 = tree2.NewMember(1, 2, 0)
		if err := p2.Join(tree2, parent2, 0); err != nil {
			t.Errorf("parent2 join: %v", err)
		}
		p2.Start(s, parent2)
	})
	sim2.Schedule(10*time.Second, func(s *eventsim.Simulator) {
		cheat2 = tree2.NewMember(2, 2, s.Now())
		// Without the referee mechanism a cheater fakes a small join time
		// directly (nothing validates it).
		cheat2.JoinTime = -10000 * time.Second
		if err := p2.Join(tree2, cheat2, s.Now()); err != nil {
			t.Errorf("cheat2 join: %v", err)
		}
		p2.Start(s, cheat2)
	})
	if err := sim2.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if cheat2.Parent() == parent2 {
		t.Fatal("control scenario: cheater failed to climb even without referees")
	}
}
