// Command harness verifies the package main exemption outside cmd/: no
// caller can import a main package, so it owns its contexts like a command
// and context.Background() here produces no diagnostic.
package main

import "context"

func main() {
	ctx := context.Background()
	_ = ctx
}
