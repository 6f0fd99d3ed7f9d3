package wcl

// The layer's constants, for the external tests that check behaviour
// at them.
const (
	PathTimeout      = pathTimeout
	CircuitMaxCells  = circuitMaxCells
	CircuitKeepalive = circuitKeepalive
	CircuitIdle      = circuitIdle
	StreamQueueMax   = streamQueueMax
)
