package broadcast

import (
	"testing"

	"whisper/internal/wire/wiretest"
)

// TestEncoderSizeHints pins the broadcast message's size hint.
func TestEncoderSizeHints(t *testing.T) {
	wiretest.CheckSizeHints(t, []wiretest.Encoder{
		{Name: "message/1KiB", Encode: message{ID: 1, Origin: 2, Hops: 3, Payload: make([]byte, 1024)}.encode},
		{Name: "message/empty", Encode: message{ID: 1, Origin: 2, Hops: 3}.encode},
	})
}
