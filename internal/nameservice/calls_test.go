package nameservice

import "flipc/internal/wire"

// The directory ops as the tests call them on a remote client, each with
// callTimeout. This is the one test file that differs between the two
// sides of the Client API change (typed methods before, Do(Op) after):
// wire_golden_test.go goes through these helpers so the same golden file
// runs, unedited, against either side.

func do(c *Client, op Op) error {
	_, err := c.Do(op, callTimeout)
	return err
}

func subscribe(c *Client, topic string, addr wire.Addr, class uint8) error {
	return do(c, Op{Kind: OpSubscribe, Name: topic, Addr: addr, Class: class})
}

func unsubscribe(c *Client, topic string, addr wire.Addr) error {
	return do(c, Op{Kind: OpUnsubscribe, Name: topic, Addr: addr})
}

func subscribePattern(c *Client, pat string, addr wire.Addr) error {
	return do(c, Op{Kind: OpSubscribePattern, Name: pat, Addr: addr})
}

func unsubscribePattern(c *Client, pat string, addr wire.Addr) error {
	return do(c, Op{Kind: OpUnsubscribePattern, Name: pat, Addr: addr})
}

func upsertPresence(c *Client, key, gw string, addr wire.Addr) error {
	return do(c, Op{Kind: OpUpsertPresence, Name: key, Sub: gw, Addr: addr})
}

func dropPresence(c *Client, key string) error {
	return do(c, Op{Kind: OpDropPresence, Name: key})
}
