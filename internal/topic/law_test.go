package topic

import (
	"strings"
	"testing"
)

// Each term of each law, broken in turn, must fail the check with an
// error that names the term and its value. (The laws against live
// counters are exercised by TestPublishFanoutAndAccounting, the credit
// tests, and the faultinject replay soak.)
func TestFanoutLedgerErrNamesTerms(t *testing.T) {
	ok := FanoutLedger{Published: 50, Owed: 100, Delivered: 70, RecvDropped: 15, PubDropped: 10, Throttled: 5}
	if err := ok.Err(); err != nil {
		t.Fatalf("balanced ledger: %v", err)
	}
	for _, tc := range []struct {
		term  string
		bump  func(*FanoutLedger)
		names string
	}{
		{"owed", func(l *FanoutLedger) { l.Owed++ }, "owed 101"},
		{"delivered", func(l *FanoutLedger) { l.Delivered++ }, "delivered 71"},
		{"recv-dropped", func(l *FanoutLedger) { l.RecvDropped++ }, "recv-dropped 16"},
		{"pub-dropped", func(l *FanoutLedger) { l.PubDropped++ }, "pub-dropped 11"},
		{"throttled", func(l *FanoutLedger) { l.Throttled++ }, "throttled 6"},
	} {
		l := ok
		tc.bump(&l)
		checkNames(t, tc.term, l.Err(), tc.names)
	}
}

func TestDurableLedgerErrNamesTerms(t *testing.T) {
	ok := DurableLedger{Published: 100, Live: 60, Replayed: 35, Stranded: 5}
	if err := ok.Err(); err != nil {
		t.Fatalf("balanced ledger: %v", err)
	}
	for _, tc := range []struct {
		term  string
		bump  func(*DurableLedger)
		names string
	}{
		{"published", func(l *DurableLedger) { l.Published++ }, "published 101"},
		{"live", func(l *DurableLedger) { l.Live++ }, "live 61"},
		{"replayed", func(l *DurableLedger) { l.Replayed++ }, "replayed 36"},
		{"stranded", func(l *DurableLedger) { l.Stranded++ }, "stranded 6"},
	} {
		l := ok
		tc.bump(&l)
		checkNames(t, tc.term, l.Err(), tc.names)
	}
}

func checkNames(t *testing.T, term string, err error, names string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s off by one: law still balanced", term)
	} else if !strings.Contains(err.Error(), names) {
		t.Errorf("%s off by one: error %q does not name %q", term, err, names)
	}
}
