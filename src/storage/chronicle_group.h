// ChronicleGroup: a collection of chronicles whose sequence numbers are
// drawn from one shared ordered domain (paper §4).
//
// The group enforces the model's single update rule: an insert into ANY
// member chronicle must carry a sequence number strictly greater than every
// sequence number already present anywhere in the group. Multiple tuples —
// and multiple member chronicles — may share one sequence number within a
// single append event ("tick"), which is what makes the SN-equijoin between
// chronicles meaningful.
//
// Each tick also carries a chronon (a temporal instant, paper §2.1) used by
// periodic views to map sequence numbers to calendar intervals. Chronons
// must be non-decreasing across ticks.

#ifndef CHRONICLE_STORAGE_CHRONICLE_GROUP_H_
#define CHRONICLE_STORAGE_CHRONICLE_GROUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/chronicle.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace chronicle {

// A temporal instant associated with a sequence number (paper: "chronon").
// Units are application-defined; the library treats them as an ordered axis.
using Chronon = int64_t;

// One append event: everything inserted under a single fresh sequence
// number. This is the unit the view-maintenance machinery consumes.
struct AppendEvent {
  SeqNum sn = 0;
  Chronon chronon = 0;
  // Per member chronicle, the tuples inserted at this SN. Chronicles absent
  // from the vector received nothing.
  std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts;
};

class ChronicleGroup {
 public:
  explicit ChronicleGroup(std::string name = "default");

  ChronicleGroup(const ChronicleGroup&) = delete;
  ChronicleGroup& operator=(const ChronicleGroup&) = delete;

  const std::string& name() const { return name_; }

  // Registers a new member chronicle. Fails on duplicate name.
  Result<ChronicleId> CreateChronicle(const std::string& name, Schema schema,
                                      RetentionPolicy retention =
                                          RetentionPolicy::All());

  // Member access.
  Result<Chronicle*> GetChronicle(ChronicleId id);
  Result<const Chronicle*> GetChronicle(ChronicleId id) const;
  Result<ChronicleId> FindChronicle(const std::string& name) const;
  size_t num_chronicles() const { return chronicles_.size(); }

  // Highest sequence number ever issued in this group (0 if none).
  SeqNum last_sn() const { return last_sn_; }
  // Chronon of the most recent tick.
  Chronon last_chronon() const { return last_chronon_; }

  // Appends `tuples` to one chronicle under a fresh sequence number and
  // returns the resulting event. `chronon` defaults to advancing the clock
  // by one unit per tick.
  Result<AppendEvent> Append(ChronicleId id, std::vector<Tuple> tuples);
  Result<AppendEvent> Append(ChronicleId id, std::vector<Tuple> tuples,
                             Chronon chronon);

  // Appends to several member chronicles under ONE shared fresh sequence
  // number (the multi-chronicle tick that feeds SN-equijoins).
  // `tuples_validated`: the caller already ran ValidateTuple over every row
  // against its chronicle's schema (the database does, before logging).
  Result<AppendEvent> AppendMulti(
      std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts,
      Chronon chronon, bool tuples_validated = false);

  // Explicit-SN variant used to exercise (and test) the sequencing
  // discipline: fails with OutOfRange unless sn > last_sn(), and with
  // OutOfRange if chronon regresses.
  Result<AppendEvent> AppendWithSeqNum(
      SeqNum sn, Chronon chronon,
      std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts,
      bool tuples_validated = false);

  // Sum of member chronicles' retained-row footprints.
  size_t MemoryFootprint() const;

  // --- checkpoint hooks (src/checkpoint) ---

  // Reinstates the group counters after a restart. Only legal on a group
  // that has seen no appends; counters may only move forward.
  Status RestoreCounters(SeqNum last_sn, Chronon last_chronon);
  // Reinstates a member chronicle's counters and retained rows. Only legal
  // while the chronicle is empty.
  Status RestoreChronicleState(ChronicleId id, uint64_t total_appended,
                               SeqNum last_sn,
                               std::vector<ChronicleRow> retained);

 private:
  std::string name_;
  std::vector<std::unique_ptr<Chronicle>> chronicles_;
  SeqNum last_sn_ = 0;
  Chronon last_chronon_ = 0;
};

}  // namespace chronicle

#endif  // CHRONICLE_STORAGE_CHRONICLE_GROUP_H_
