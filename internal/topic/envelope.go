package topic

// Enveloped delivery for pattern-plane subscribers. A frame arriving on
// a FLIPC inbox carries payload and flags but no topic identity — fine
// for an exact subscriber (one inbox per topic) but useless for a
// gateway whose single per-class inbox receives every topic matching
// its patterns. The publisher therefore wraps the payload for pattern
// subscribers:
//
//	[1 byte: topic-name length][topic name][original payload]
//
// Topic names are bounded at 200 bytes by the registry protocol, so
// one length byte always suffices. The envelope wraps the ORIGINAL
// payload — on a durable topic, the pre-sequence-prefix bytes — since
// pattern subscribers take no part in replay.
//
// The envelope is a convention between Publisher and the pattern
// subscriber (every wire flag bit is already spoken for): an endpoint
// subscribed through the pattern plane receives ONLY enveloped frames,
// and must not be subscribed exactly to anything, so there is never
// ambiguity on the receive side.

// envelopeOverhead is the bytes the envelope adds to a payload.
func envelopeOverhead(topic string) int { return 1 + len(topic) }

// AppendEnvelope appends the enveloped form of payload for topic to
// dst and returns the extended slice.
func AppendEnvelope(dst []byte, topic string, payload []byte) []byte {
	dst = append(dst, byte(len(topic)))
	dst = append(dst, topic...)
	return append(dst, payload...)
}

// OpenEnvelope splits an enveloped frame into topic name and payload,
// both aliasing frame. ok is false if the frame cannot be an envelope
// (empty, or the length byte overruns the frame).
func OpenEnvelope(frame []byte) (topic, payload []byte, ok bool) {
	if len(frame) < 1 {
		return nil, nil, false
	}
	n := int(frame[0])
	if n == 0 || 1+n > len(frame) {
		return nil, nil, false
	}
	return frame[1 : 1+n], frame[1+n:], true
}
