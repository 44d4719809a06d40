package node

import (
	"hash/maphash"

	"omcast/internal/wire"
)

// senderSlots is the size of a node's sender table. A member hears a handful
// of senders at a time (its parent, its children, its recovery group and
// gossip peers), so 256 direct-mapped slots keep them apart, and the table
// never grows.
const senderSlots = 256

// senderTable interns the From address of every datagram the node decodes
// (wire.Interner): a sender heard before comes back as the string already
// held, so decoding a stream packet allocates nothing. Slots are
// direct-mapped by a keyed hash: a hit is one hash and one compare; a miss
// converts the bytes as a plain decode does and overwrites its slot. The
// node decodes under its lock, so the table needs none. Only
// wire.ValidAddr bytes are stored, so a forger cycling through addresses
// pins at most senderSlots × wire.MaxAddrLen bytes, and the per-node hash
// seed keeps it from aiming at one honest sender's slot.
type senderTable struct {
	seed  maphash.Seed
	slots [senderSlots]wire.Addr // "" is an empty slot
}

func newSenderTable() *senderTable { return &senderTable{seed: maphash.MakeSeed()} }

// Intern implements wire.Interner. The returned Addr never aliases b.
func (t *senderTable) Intern(b []byte) wire.Addr {
	slot := &t.slots[maphash.Bytes(t.seed, b)%senderSlots]
	if string(*slot) == string(b) {
		return *slot
	}
	a := wire.Addr(b)
	if wire.ValidAddr(a) {
		*slot = a
	}
	return a
}
