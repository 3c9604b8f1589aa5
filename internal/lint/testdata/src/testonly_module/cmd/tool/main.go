// Command tool calls user.Run, so internal/user has no unused export.
package main

import "lintcorpus/internal/user"

func main() { println(user.Run()) }
