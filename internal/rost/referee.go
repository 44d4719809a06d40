// The reference-node (referee) mechanism of Section 3.4: because ROST
// promotes nodes by bandwidth and age, a member could lie about either to
// climb the tree (or to park a malicious node near the source). Each member
// therefore gets referee witnesses it cannot choose itself:
//
//   - Age referees: when a member joins, its parent records the joining time
//     with rage > 1 randomly chosen nodes, which keep heartbeat connections
//     with the member and vouch for its age.
//   - Bandwidth referees: the parent hands the newcomer a measurer set that
//     jointly measures its effective outbound bandwidth; the aggregate is
//     stored with rbw > 1 bandwidth referees.
//
// When a referee departs, the member's parent assigns a replacement that
// synchronises with the surviving referees. If every referee of a record is
// lost at once, the corresponding evidence is gone: the age is re-witnessed
// from the current time (the member provably loses its seniority) and the
// bandwidth is re-measured.

package rost

import (
	"time"

	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/xrand"
)

// Referee-set sizes; the paper requires both to exceed one for fault
// tolerance.
const (
	// DefaultAgeReferees is rage, the age referees of each member.
	DefaultAgeReferees = 3
	// DefaultBandwidthReferees is rbw, the bandwidth referees of each member.
	DefaultBandwidthReferees = 3
	// DefaultClaimTolerance is the slack allowed between a claimed BTP and
	// the referee-computed BTP before the claim is rejected (measurement
	// noise, heartbeat-interval age skew).
	DefaultClaimTolerance = 0.05
)

// refereeRecord is the witnessed evidence about one member.
type refereeRecord struct {
	ageReferees []overlay.MemberID
	bwReferees  []overlay.MemberID
	// witnessedJoin is the join time the age referees vouch for.
	witnessedJoin time.Duration
	// measuredBW is the aggregate outbound bandwidth the measurer set
	// observed. Measurements see real traffic, so cheaters cannot inflate
	// this value.
	measuredBW float64
}

// Referees implements the reference-node mechanism over one tree.
type Referees struct {
	tree *overlay.Tree
	rng  *xrand.Source

	records map[overlay.MemberID]*refereeRecord
	// cheatFactor maps cheating members to the multiplier they apply to
	// their advertised BTP (test/attack injection).
	cheatFactor map[overlay.MemberID]float64

	// Verifications counts BTP checks performed.
	Verifications int
	// Rejections counts claims the referees exposed as inflated.
	Rejections int
	// Replacements counts referee hand-offs after referee departures.
	Replacements int
	// AgeResets counts members whose whole age-referee set died at once,
	// losing their provable seniority.
	AgeResets int
}

// Instrument registers the referee mechanism's instruments on reg: its four
// counts, read from the fields above, and the number of members currently
// marked as cheaters.
func (r *Referees) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("omcast_referee_verifications_total", "BTP claims checked against referee evidence.",
		func() float64 { return float64(r.Verifications) })
	reg.CounterFunc("omcast_referee_rejections_total", "BTP claims the referees exposed as inflated.",
		func() float64 { return float64(r.Rejections) })
	reg.CounterFunc("omcast_referee_replacements_total", "Referee hand-offs after referee departures.",
		func() float64 { return float64(r.Replacements) })
	reg.CounterFunc("omcast_referee_age_resets_total", "Members whose whole age-referee set died, losing provable seniority.",
		func() float64 { return float64(r.AgeResets) })
	reg.GaugeFunc("omcast_referee_marked_cheaters", "Members currently marked as inflating their claims.",
		func() float64 { return float64(len(r.cheatFactor)) })
}

// NewReferees creates the mechanism for tree, drawing referee choices from
// rng. Every member gets DefaultAgeReferees age referees and
// DefaultBandwidthReferees bandwidth referees, and a claim may exceed the
// witnessed BTP by DefaultClaimTolerance.
func NewReferees(tree *overlay.Tree, rng *xrand.Source) *Referees {
	return &Referees{
		tree:        tree,
		rng:         rng,
		records:     make(map[overlay.MemberID]*refereeRecord),
		cheatFactor: make(map[overlay.MemberID]float64),
	}
}

// Enroll registers referee witnesses for a joining member: the parent
// records the member's joining time with the age referees and has the
// measurer set measure its outbound bandwidth. It is idempotent: rejoining
// after a parent failure does not reset the member's witnessed age.
func (r *Referees) Enroll(m *overlay.Member, now time.Duration) {
	if _, ok := r.records[m.ID]; ok {
		return
	}
	// The witnessed join time is the member's actual join time (for members
	// seeded into an already-running overlay this predates `now`); a member
	// can never claim to be older than the enrolment instant.
	witnessed := m.JoinTime
	if witnessed > now {
		witnessed = now
	}
	r.records[m.ID] = &refereeRecord{
		ageReferees:   r.pickReferees(m, DefaultAgeReferees),
		bwReferees:    r.pickReferees(m, DefaultBandwidthReferees),
		witnessedJoin: witnessed,
		measuredBW:    m.Bandwidth,
	}
}

// Forget drops the record of a departed member and is also the hook where
// surviving members detect departed referees (heartbeat timeout) and ask for
// replacements.
func (r *Referees) Forget(id overlay.MemberID) {
	delete(r.records, id)
	delete(r.cheatFactor, id)
}

// MarkCheater makes a member advertise factor x its true BTP. A factor of 1
// (or less than or equal to zero) clears the mark.
func (r *Referees) MarkCheater(id overlay.MemberID, factor float64) {
	if factor <= 0 || factor == 1 {
		delete(r.cheatFactor, id)
	} else {
		r.cheatFactor[id] = factor
	}
}

// ClaimedBTP returns the BTP the member advertises to its neighbours:
// truthful for honest members, inflated for marked cheaters.
func (r *Referees) ClaimedBTP(m *overlay.Member, now time.Duration) float64 {
	btp := m.BTP(now)
	if f, ok := r.cheatFactor[m.ID]; ok {
		return btp * f
	}
	return btp
}

// ClaimedBandwidth returns the outbound bandwidth the member advertises
// (cheaters inflate this too — Section 3.4's threat is a node reporting "a
// large bandwidth or [that it] has stayed in the overlay for a long time").
func (r *Referees) ClaimedBandwidth(m *overlay.Member) float64 {
	if f, ok := r.cheatFactor[m.ID]; ok {
		return m.Bandwidth * f
	}
	return m.Bandwidth
}

// VerifyBTP checks a claimed BTP against the referee evidence, repairing the
// referee sets first (departed referees are replaced; fully lost age
// evidence resets the witnessed age). It reports whether the claim is
// consistent with the witnesses.
func (r *Referees) VerifyBTP(m *overlay.Member, claimed float64, now time.Duration) bool {
	rec, ok := r.records[m.ID]
	if !ok {
		// No evidence at all: enrol from scratch with an untrusted age — the
		// member's claimed join time cannot be verified, so its provable age
		// starts now and the claim is honoured only if it matches a zero-age
		// BTP.
		rec = &refereeRecord{
			ageReferees:   r.pickReferees(m, DefaultAgeReferees),
			bwReferees:    r.pickReferees(m, DefaultBandwidthReferees),
			witnessedJoin: now,
			measuredBW:    m.Bandwidth,
		}
		r.records[m.ID] = rec
	}
	r.maintain(m, rec, now)
	r.Verifications++
	age := now - rec.witnessedJoin
	if age < 0 {
		age = 0
	}
	trueBTP := rec.measuredBW * age.Seconds()
	if claimed > trueBTP*(1+DefaultClaimTolerance)+1e-9 {
		r.Rejections++
		return false
	}
	return true
}

// maintain replaces departed referees. The member cannot pick its own
// replacements — its parent does (no incentive to collude with a child that
// competes for its own position) — so replacements are drawn randomly like
// the originals.
func (r *Referees) maintain(m *overlay.Member, rec *refereeRecord, now time.Duration) {
	if r.allDead(rec.ageReferees) {
		// Every witness of the join time died before a replacement could
		// sync: the age evidence is unrecoverable and the member's provable
		// age restarts now.
		rec.witnessedJoin = now
		r.AgeResets++
		rec.ageReferees = r.pickReferees(m, DefaultAgeReferees)
	} else {
		rec.ageReferees = r.replaceDead(m, rec.ageReferees)
	}
	if r.allDead(rec.bwReferees) {
		// Bandwidth can simply be re-measured by a fresh measurer set.
		rec.measuredBW = m.Bandwidth
		rec.bwReferees = r.pickReferees(m, DefaultBandwidthReferees)
	} else {
		rec.bwReferees = r.replaceDead(m, rec.bwReferees)
	}
}

// replaceDead swaps departed referees for fresh ones; at least one witness
// survives (callers handle the all-dead case) and synchronises the
// newcomers.
func (r *Referees) replaceDead(m *overlay.Member, ids []overlay.MemberID) []overlay.MemberID {
	want := len(ids)
	out := ids[:0]
	for _, id := range ids {
		if r.tree.Member(id) != nil {
			out = append(out, id)
		}
	}
	missing := want - len(out)
	if missing == 0 {
		return out
	}
	fresh := r.pickReferees(m, missing)
	out = append(out, fresh...)
	r.Replacements += len(fresh)
	return out
}

// allDead reports whether every referee in ids has departed.
func (r *Referees) allDead(ids []overlay.MemberID) bool {
	for _, id := range ids {
		if r.tree.Member(id) != nil {
			return false
		}
	}
	return true
}

// pickReferees draws n random live members distinct from m. In a small
// overlay fewer than n may be available.
func (r *Referees) pickReferees(m *overlay.Member, n int) []overlay.MemberID {
	if n <= 0 {
		return nil
	}
	cands := r.tree.Sample(r.rng, n, m)
	ids := make([]overlay.MemberID, 0, len(cands))
	for _, c := range cands {
		ids = append(ids, c.ID)
	}
	return ids
}
