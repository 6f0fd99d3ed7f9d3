package wcl

import (
	"testing"

	"whisper/internal/identity"
	"whisper/internal/transport"
	"whisper/internal/wire/wiretest"
)

// TestEncoderSizeHints pins every WCL encoder's size hint: each message
// is one allocation, nylon's headroom included. (Data cells are not
// encoded but built in place; TestCellAllocBudgets covers them.)
func TestEncoderSizeHints(t *testing.T) {
	via := []identity.NodeID{7, 8}
	fwd := &forwardMsg{PathID: 1, From: 2, ViaPath: via, Onion: make([]byte, 700), Content: make([]byte, 1052)}
	setup := &circSetupMsg{CircID: 1, From: 2, ViaPath: via, Onion: make([]byte, 800)}
	sack := &streamAckMsg{CircID: 1, StreamID: 2, Cum: 3, Bits: 4}
	ep := transport.Endpoint{IP: 3, Port: 1}
	wiretest.CheckSizeHints(t, []wiretest.Encoder{
		{Name: "forward", Encode: fwd.encode},
		{Name: "forward/direct", Encode: (&forwardMsg{Onion: make([]byte, 300), Content: make([]byte, 92)}).encode},
		{Name: "ack", Encode: func() []byte { return encodeAck(9) }},
		{Name: "circSetup", Encode: setup.encode},
		{Name: "circAck", Encode: func() []byte { return encodeCircAck(9) }},
		{Name: "circCellAck", Encode: func() []byte { return encodeCircCellAck(9, 10) }},
		{Name: "circClose", Encode: func() []byte { return encodeCircClose(9) }},
		{Name: "streamAck", Encode: sack.encode},
		{Name: "addrEndpoint", Encode: func() []byte { return encodeAddrEndpoint(ep, 5) }},
		{Name: "addrID", Encode: func() []byte { return encodeAddrID(5) }},
	})
}
