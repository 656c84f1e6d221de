package server

// NewConn wraps nc as Serve wraps an accepted connection, for the tests
// that drive a Conn without a listener.
var NewConn = (*Transport).newConn
