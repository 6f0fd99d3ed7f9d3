package exp

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// TransferConfig parameterizes the bulk-transfer comparison: the same
// confidential byte stream moved between two members of a private
// group three ways — chunked one-shot onion sends, single-cell circuit
// sends, and the windowed stream layer — measuring virtual-time
// throughput. Chunks are StreamFragSize bytes in every leg, so the
// comparison isolates the transport (stop-and-wait vs pipelined
// window), not the framing.
type TransferConfig struct {
	Seed      int64
	N         int // default 300
	Messages  int // messages per leg (default 8)
	MessageKB int // payload KiB per message (default 32, one full window)
}

func (c TransferConfig) withDefaults() TransferConfig {
	if c.N == 0 {
		c.N = 300
	}
	if c.Messages == 0 {
		c.Messages = 8
	}
	if c.MessageKB == 0 {
		c.MessageKB = 32
	}
	return c
}

// TransferLeg is the measured throughput of one transport.
type TransferLeg struct {
	Label     string
	Delivered int           // messages fully acknowledged at the source
	Bytes     uint64        // payload bytes handed to the destination app
	Virtual   time.Duration // virtual time, first launch to last delivery
	KBPerSec  float64       // Bytes over Virtual
}

// TransferResult is the full comparison plus the stream-layer health
// counters and a determinism fingerprint (TestExperimentTable runs the
// experiment twice with one seed and compares them).
type TransferResult struct {
	Messages     int
	MessageBytes int
	GroupJoined  bool // src and dst both joined the private group

	OneShot TransferLeg
	Cells   TransferLeg
	Stream  TransferLeg

	StreamVsOneShot float64 // stream KB/s over one-shot KB/s
	StreamVsCells   float64 // stream KB/s over single-cell KB/s

	Retransmits uint64 // source stream retransmits over the stream leg
	Fallbacks   uint64 // stream messages that fell back to one-shots
	Fingerprint uint64
}

// Transfer runs all three legs on one converged world: a NATted source
// bulk-ships Messages payloads of MessageKB KiB to a NATted
// destination inside a private group. The one-shot and cell legs are
// strict stop-and-wait — chunk n+1 launches in chunk n's completion
// callback, message m+1 after message m — which is exactly what an
// application could build before streams existed. The stream leg hands
// whole messages to SendStream and lets the window pipeline fragments.
func Transfer(cfg TransferConfig) (TransferResult, error) {
	cfg = cfg.withDefaults()
	w, err := sim.NewWorld(sim.Options{
		Seed:     cfg.Seed,
		N:        cfg.N,
		NATRatio: 0.7,
		KeyPool:  keyPool,
		WCL:      &wcl.Config{MinPublic: 3},
		PPSS:     &ppss.Config{KeyBlobSize: 256, MinHelpers: 3},
		Obs:      worldObs("transfer"),
	})
	if err != nil {
		return TransferResult{}, err
	}
	w.StartAll()
	w.Sim.RunUntil(5 * time.Minute)

	natted := w.LiveNatted()
	publics := w.LivePublics()
	if len(natted) < 2 || len(publics) == 0 {
		return TransferResult{}, fmt.Errorf("world did not converge: %d NATted, %d public", len(natted), len(publics))
	}
	src, dst := natted[0], natted[1]

	msgBytes := cfg.MessageKB * 1024
	res := TransferResult{Messages: cfg.Messages, MessageBytes: msgBytes}

	// The private group: a public leader creates it and invites both
	// endpoints, the way the paper's PPSS onboards members.
	inst, err := publics[0].PPSS.CreateGroup("transfer")
	if err != nil {
		return TransferResult{}, fmt.Errorf("create group: %w", err)
	}
	joined := 0
	for _, n := range []*sim.Node{src, dst} {
		accr, entry, err := inst.Invite(n.ID())
		if err != nil {
			continue
		}
		n.PPSS.Join("transfer", accr, entry, func(_ *ppss.Instance, err error) {
			if err == nil {
				joined++
			}
		})
	}
	w.RunFor(30 * time.Second)
	res.GroupJoined = joined == 2

	// Deterministic payloads from the experiment seed, independent of
	// the world's rng so protocol scheduling is untouched.
	prng := rand.New(rand.NewSource(cfg.Seed ^ 0x7472616e73666572))
	payloads := make([][]byte, cfg.Messages)
	for m := range payloads {
		payloads[m] = make([]byte, msgBytes)
		prng.Read(payloads[m])
	}
	fragSize := wcl.DefaultStreamFragSize

	// Establish the circuit before any timed leg so setup cost (one
	// RSA onion round trip) is outside all three windows; the one-shot
	// leg never touches it, and the cell and stream legs both get the
	// same warm state.
	src.WCL.SendCircuit(expDest(w, dst, 3), []byte("transfer-warmup"), func(wcl.Result) {})
	w.RunFor(15 * time.Second)

	var recvBytes uint64
	dst.WCL.OnReceive = func(p []byte) { recvBytes += uint64(len(p)) }

	// pump drives the simulator until stop reports true (bounded, so a
	// wedged leg fails the shape check instead of hanging the harness).
	pump := func(stop func() bool) {
		deadline := w.Now() + 30*time.Minute
		for !stop() && w.Now() < deadline {
			w.RunFor(time.Second)
		}
	}

	// leg times one transport: launch starts every message and reports
	// each one's completion through done; the leg ends at the last.
	leg := func(label string, launch func(done func(ok bool))) TransferLeg {
		l := TransferLeg{Label: label}
		recvBytes = 0
		t0 := w.Now()
		tEnd := t0
		completed := 0
		launch(func(ok bool) {
			completed++
			if ok {
				l.Delivered++
			}
			tEnd = w.Now()
		})
		pump(func() bool { return completed == cfg.Messages })
		l.Bytes = recvBytes
		l.Virtual = tEnd - t0
		if s := l.Virtual.Seconds(); s > 0 {
			l.KBPerSec = float64(l.Bytes) / 1024 / s
		}
		return l
	}

	// chunked is the strict stop-and-wait sender shared by the one-shot
	// and cell transports; a failed chunk abandons its message.
	chunked := func(send func(wcl.Dest, []byte, func(wcl.Result))) func(func(bool)) {
		return func(done func(bool)) {
			var nextMsg func(m int)
			nextMsg = func(m int) {
				if m == cfg.Messages {
					return
				}
				payload := payloads[m]
				var sendChunk func(off int)
				sendChunk = func(off int) {
					end := min(off+fragSize, len(payload))
					send(expDest(w, dst, 3), payload[off:end], func(r wcl.Result) {
						ok := r.Outcome != wcl.Failed
						if ok && end < len(payload) {
							sendChunk(end)
							return
						}
						done(ok)
						nextMsg(m + 1)
					})
				}
				sendChunk(0)
			}
			nextMsg(0)
		}
	}

	res.OneShot = leg("one-shot", chunked(src.WCL.Send))
	res.Cells = leg("cells", chunked(src.WCL.SendCircuit))

	// The stream leg: whole messages go to SendStream up front; the
	// circuit runs them serially (one active stream, the rest queued),
	// matching the serial message order of the stop-and-wait legs.
	streamStats := src.WCL.Stats()
	res.Stream = leg("stream", func(done func(bool)) {
		for m := range payloads {
			src.WCL.SendStream(expDest(w, dst, 3), payloads[m], func(r wcl.Result) { done(r.Outcome != wcl.Failed) })
		}
	})
	after := src.WCL.Stats()
	res.Retransmits = after.StreamRetransmits - streamStats.StreamRetransmits
	res.Fallbacks = after.StreamFallbacks - streamStats.StreamFallbacks
	dst.WCL.OnReceive = nil

	if res.OneShot.KBPerSec > 0 {
		res.StreamVsOneShot = res.Stream.KBPerSec / res.OneShot.KBPerSec
	}
	if res.Cells.KBPerSec > 0 {
		res.StreamVsCells = res.Stream.KBPerSec / res.Cells.KBPerSec
	}

	h := fnv.New64a()
	for _, leg := range []TransferLeg{res.OneShot, res.Cells, res.Stream} {
		fmt.Fprintf(h, "%s|%d|%d|%d;", leg.Label, leg.Delivered, leg.Bytes, leg.Virtual.Nanoseconds())
	}
	fmt.Fprintf(h, "group=%v;retx=%d;fb=%d", res.GroupJoined, res.Retransmits, res.Fallbacks)
	res.Fingerprint = h.Sum64()

	return res, nil
}

// PrintTransfer renders the comparison.
func PrintTransfer(out io.Writer, res TransferResult) {
	fmt.Fprintf(out, "== Bulk transfer in a private group: %d messages x %d KiB ==\n",
		res.Messages, res.MessageBytes/1024)
	fmt.Fprintf(out, "group membership established: %v\n", res.GroupJoined)
	tb := stats.NewTable("leg", "delivered", "bytes", "virtual time", "KB/s")
	for _, l := range []TransferLeg{res.OneShot, res.Cells, res.Stream} {
		tb.Row(l.Label,
			fmt.Sprintf("%d/%d", l.Delivered, res.Messages),
			fmt.Sprint(l.Bytes),
			fmt.Sprintf("%.2f s", l.Virtual.Seconds()),
			fmt.Sprintf("%.1f", l.KBPerSec))
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintf(out, "stream throughput vs one-shot: %.1fx   vs single cells: %.1fx\n",
		res.StreamVsOneShot, res.StreamVsCells)
	fmt.Fprintf(out, "stream retransmits: %d   fallbacks: %d\n", res.Retransmits, res.Fallbacks)
	fmt.Fprintf(out, "fingerprint: %s\n", res.fingerprint())
}

func (res TransferResult) fingerprint() string { return fmt.Sprintf("%016x", res.Fingerprint) }

// TransferShapeCheck verifies the tentpole claims: every leg delivers
// every byte, the group forms, streams never fall back on a healthy
// cluster, and the windowed stream is at least 2x the stop-and-wait
// transports.
func TransferShapeCheck(res TransferResult) []string {
	var bad []string
	if !res.GroupJoined {
		bad = append(bad, "private group membership did not form")
	}
	want := uint64(res.Messages) * uint64(res.MessageBytes)
	for _, l := range []TransferLeg{res.OneShot, res.Cells, res.Stream} {
		if l.Delivered != res.Messages {
			bad = append(bad, fmt.Sprintf("%s leg delivered %d/%d messages", l.Label, l.Delivered, res.Messages))
		}
		if l.Bytes != want {
			bad = append(bad, fmt.Sprintf("%s leg delivered %d bytes, want %d", l.Label, l.Bytes, want))
		}
	}
	if res.StreamVsOneShot < 2 {
		bad = append(bad, fmt.Sprintf("stream only %.1fx one-shot throughput, want >= 2x", res.StreamVsOneShot))
	}
	if res.StreamVsCells < 2 {
		bad = append(bad, fmt.Sprintf("stream only %.1fx single-cell throughput, want >= 2x", res.StreamVsCells))
	}
	if res.Fallbacks != 0 {
		bad = append(bad, fmt.Sprintf("%d stream fallbacks on a healthy cluster, want 0", res.Fallbacks))
	}
	return bad
}
