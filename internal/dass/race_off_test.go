//go:build !race

package dass

const raceBuild = false
