package ppss

import (
	"whisper/internal/crypt"
	"whisper/internal/identity"
	"whisper/internal/keyss"
	"whisper/internal/transport"
	"whisper/internal/wcl"
	"whisper/internal/wire"
)

// Entry is one element of a private view (§IV-B): besides the member's
// identity and age (held by the enclosing pss.Entry), it carries
// everything a source needs to open a WCL route to the member — its
// public key and, for N-nodes, Π helper P-nodes (identities, endpoints
// and public keys) able to act as the next-to-last mix.
type Entry struct {
	ID      identity.NodeID
	IsPub   bool
	Contact transport.Endpoint // meaningful for P-node members
	PubKey  crypt.PublicKey
	Helpers []wcl.Helper
}

// Key implements pss.Item.
func (e Entry) Key() identity.NodeID { return e.ID }

// IsPublic implements pss.Item.
func (e Entry) IsPublic() bool { return e.IsPub }

// Dest converts the entry to the WCL destination description. P-node
// members are addressable by endpoint; N-nodes need their helper set.
func (e Entry) Dest() wcl.Dest {
	d := wcl.Dest{ID: e.ID, Key: e.PubKey, Helpers: e.Helpers}
	if e.IsPub {
		d.Endpoint = e.Contact
	}
	return d
}

func (e Entry) encode(w *wire.Writer, keyBlob int) {
	w.U64(uint64(e.ID))
	w.Bool(e.IsPub)
	w.U32(uint32(e.Contact.IP))
	w.U16(e.Contact.Port)
	keyss.EncodeKey(w, e.PubKey, keyBlob)
	w.U8(uint8(len(e.Helpers)))
	for _, h := range e.Helpers {
		w.U64(uint64(h.ID))
		w.U32(uint32(h.Endpoint.IP))
		w.U16(h.Endpoint.Port)
		keyss.EncodeKey(w, h.Key, keyBlob)
	}
}

func decodeEntry(r *wire.Reader, keyBlob int) Entry {
	var e Entry
	e.ID = identity.NodeID(r.U64())
	e.IsPub = r.Bool()
	e.Contact = transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
	e.PubKey = keyss.DecodeKey(r, keyBlob)
	n := int(r.U8())
	if n > 8 {
		n = 8
	}
	if n > 0 {
		e.Helpers = make([]wcl.Helper, 0, n)
	}
	for i := 0; i < n; i++ {
		var h wcl.Helper
		h.ID = identity.NodeID(r.U64())
		h.Endpoint = transport.Endpoint{IP: transport.IP(r.U32()), Port: r.U16()}
		h.Key = keyss.DecodeKey(r, keyBlob)
		e.Helpers = append(e.Helpers, h)
	}
	return e
}

// Encode serializes the entry for applications that ship entries in
// their own payloads (e.g. T-Chord queries carrying the origin's
// coordinates, §V-G).
func (e Entry) Encode(w *wire.Writer, keyBlobSize int) { e.encode(w, keyBlobSize) }

// EncodedSize is the number of bytes Encode writes, for exact buffer
// sizing.
func (e Entry) EncodedSize(keyBlobSize int) int {
	key := keyss.KeySize(keyBlobSize)
	return 8 + 1 + 6 + key + 1 + len(e.Helpers)*(8+6+key)
}

// DecodeEntry parses an entry written by Encode.
func DecodeEntry(r *wire.Reader, keyBlobSize int) Entry { return decodeEntry(r, keyBlobSize) }
