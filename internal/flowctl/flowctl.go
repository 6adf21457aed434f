// Package flowctl provides flow control *above* FLIPC.
//
// FLIPC's transport deliberately has no flow control: the optimistic
// protocol discards arrivals that find no posted buffer, and "flow
// control to avoid discarded messages can be provided either by
// applications or by libraries designed to fit between applications and
// FLIPC" (§Message Transfer). This package is such a library:
//
//   - Account and the credit/hello codec (credit.go) are a credit
//     window (the customization PAM chose for its active-message
//     facility): the sender charges one credit per message and the
//     receiver returns cumulative grants on a reverse FLIPC channel;
//     granting only buffers it has posted, it is never overrun. The per-topic receive
//     credit in internal/topic is built on them, and experiment E9
//     drives them by hand over a msglib Outbox/Inbox pair;
//   - RPCBuffers and PeriodicBuffers are the paper's two static-sizing
//     examples, where application structure removes the need for any
//     runtime flow control at all.
//
// Credit frames carry cumulative disposed counts (see credit.go), so a
// credit frame lost to a transient peer outage shrinks the window only
// until the next frame arrives — never permanently.
package flowctl

// Static sizing: the paper's two examples of application structure
// eliminating runtime flow control (§Message Transfer).

// RPCBuffers returns the receive-buffer count that makes an RPC server
// with a fixed client population overrun-free: each of maxClients
// clients has at most outstandingPerClient requests in flight.
func RPCBuffers(maxClients, outstandingPerClient int) int {
	if maxClients < 0 || outstandingPerClient < 0 {
		return 0
	}
	return maxClients * outstandingPerClient
}

// PeriodicBuffers returns the worst-case buffer need of a strictly
// periodic component: producers together send at most msgsPerPeriod
// messages per period, and the consumer is guaranteed to drain within
// drainPeriods periods.
func PeriodicBuffers(msgsPerPeriod, drainPeriods int) int {
	if msgsPerPeriod < 0 || drainPeriods < 1 {
		return 0
	}
	return msgsPerPeriod * drainPeriods
}
