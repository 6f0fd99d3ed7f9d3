package pubsub

import (
	"testing"

	"whisper/internal/wire/wiretest"
)

// TestEncoderSizeHints pins the size hints of the two pub/sub encoders:
// a 1 KiB publication envelope and the default subscription filter.
func TestEncoderSizeHints(t *testing.T) {
	env := Envelope{ID: 7, Hops: 3, Ct: make([]byte, 1052)}
	filter := NewFilter(0, 0)
	wiretest.CheckSizeHints(t, []wiretest.Encoder{
		{Name: "envelope", Encode: env.Encode},
		{Name: "envelope/empty", Encode: Envelope{ID: 7}.Encode},
		{Name: "filter", Encode: filter.Encode},
	})
}
