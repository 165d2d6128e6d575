package core

import "fmt"

// State is a TCP connection state. The demultiplexer itself needs only the
// listen/established distinction, but the engine's accept path walks the
// full passive-open sequence, so the standard states are defined. It is
// 32 bits so that it packs beside the 12-byte Key and a PCB stays at 40
// bytes.
type State int32

// TCP connection states (RFC 793 §3.2).
const (
	StateClosed State = iota
	StateListen
	StateSynRcvd
	StateSynSent
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_RCVD", "SYN_SENT", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

// String names the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// PCB is a protocol control block: the per-connection state a TCP endpoint
// keeps, found by demultiplexing each inbound segment. Only the fields the
// demultiplexing experiments and the engine need are modeled; SndNxt/RcvNxt
// carry enough sequence state for the engine's segment processing.
type PCB struct {
	// Key is the connection identity the demultiplexer matches on.
	// It must not change while the PCB is inserted in a Demuxer.
	Key Key

	// State is the TCP connection state.
	State State

	// SndNxt and RcvNxt are the next sequence numbers to send and expect.
	SndNxt uint32
	RcvNxt uint32

	// UserData lets applications attach their per-connection state, as
	// so_pcb links the socket in BSD.
	UserData any
}

// NewPCB returns an established-state PCB for the given connection key.
func NewPCB(k Key) *PCB {
	return &PCB{Key: k, State: StateEstablished}
}

// NewListenPCB returns a listening PCB with a wildcard remote endpoint.
func NewListenPCB(k Key) *PCB {
	return &PCB{Key: k, State: StateListen}
}

// String summarizes the PCB for diagnostics.
func (p *PCB) String() string {
	return fmt.Sprintf("PCB(%s %s)", p.Key, p.State)
}
