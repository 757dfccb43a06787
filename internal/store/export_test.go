package store

// The manifest and shard readers, for the external fuzz and store tests.
var (
	ReadManifest = readManifest
	DecodeShard  = decodeShard
)
