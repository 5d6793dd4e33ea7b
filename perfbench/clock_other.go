//go:build !amd64

package main

// ticks reads the span clock: the monotonic clock in nanoseconds.
func ticks() int64 { return now() }
