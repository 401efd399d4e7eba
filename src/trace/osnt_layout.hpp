// Internal: shared constants and field codecs of the OSNT on-disk layouts.
//
// Used by the writer (trace_io.cpp) and the reader (osnt_reader.cpp); not
// part of the public trace API. The byte-level layout contract lives in
// trace_io.hpp's header comment and DESIGN.md §"OSNT v3".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/chunk_aggregate.hpp"
#include "trace/trace_model.hpp"

namespace osn::trace::osnt {

constexpr std::uint32_t kMagic = 0x544e534f;    // "OSNT" little-endian
constexpr std::uint32_t kVersionChunked = 3;    // chunk-indexed + CRC + trailer

// Fixed-width trailer: u64 index_offset, u64 footer_offset, u32 flags,
// u32 trailer magic — the only fixed-width region, so the reader can find
// the index from EOF without parsing the stream.
constexpr std::uint32_t kTrailerMagic = 0x334e534f;  // "OSN3" little-endian
constexpr std::size_t kTrailerSize = 24;
constexpr std::uint32_t kFlagTruncated = 1;  ///< writer destroyed before finish()

// Optional pre-aggregate block, stored inside the index region right after
// the entries CRC: u32le magic "OSNA", varint n_chunks (must equal the index
// chunk count), one aggregate blob per chunk plus a tail blob, u32le CRC-32
// of the block. Readers that find it damaged drop the aggregates and keep the
// index (record decode still works); files written without an aggregator
// simply end the region at the entries CRC.
constexpr std::uint32_t kAggMagic = 0x414e534f;  // "OSNA" little-endian

void put_string(std::vector<std::uint8_t>& out, const std::string& s);
std::string get_string(const std::uint8_t* buf, std::size_t size, std::size_t& pos);

/// Footer fields: node metadata + task table, then the drain counters.
void put_meta_and_tasks(std::vector<std::uint8_t>& out, const TraceMeta& meta,
                        const std::map<Pid, TaskInfo>& tasks);
void get_meta_and_tasks(const std::uint8_t* buf, std::size_t size, std::size_t& pos,
                        TraceMeta& meta, std::map<Pid, TaskInfo>& tasks);
void put_drain(std::vector<std::uint8_t>& out, const DrainStats& drain);
void get_drain(const std::uint8_t* buf, std::size_t size, std::size_t& pos,
               DrainStats& drain);

/// One pre-aggregate blob (sparse sorted lists, varint fields).
void put_aggregate(std::vector<std::uint8_t>& out, const ChunkAggregate& agg);
void get_aggregate(const std::uint8_t* buf, std::size_t size, std::size_t& pos,
                   ChunkAggregate& agg);

// Fixed-width little-endian fields (CRCs and trailer only).
void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint32_t get_u32le(const std::uint8_t* buf, std::size_t size, std::size_t& pos);
std::uint64_t get_u64le(const std::uint8_t* buf, std::size_t size, std::size_t& pos);

}  // namespace osn::trace::osnt
