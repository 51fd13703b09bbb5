package udp

// ReaderExited reports whether the node's socket reader has returned.
func ReaderExited(n *Node) bool {
	select {
	case <-n.readerDone:
		return true
	default:
		return false
	}
}
