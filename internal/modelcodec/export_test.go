package modelcodec

// LoadBytes exposes LoadFile's decode path to the external test package,
// so the fuzzer drives it without touching the filesystem.
var LoadBytes = loadBytes
