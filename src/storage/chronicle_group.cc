#include "storage/chronicle_group.h"

namespace chronicle {

ChronicleGroup::ChronicleGroup(std::string name) : name_(std::move(name)) {}

Result<ChronicleId> ChronicleGroup::CreateChronicle(const std::string& name,
                                                    Schema schema,
                                                    RetentionPolicy retention) {
  for (const auto& c : chronicles_) {
    if (c->name() == name) {
      return Status::AlreadyExists("chronicle '" + name + "' already exists in group '" +
                                   name_ + "'");
    }
  }
  ChronicleId id = static_cast<ChronicleId>(chronicles_.size());
  chronicles_.push_back(
      std::make_unique<Chronicle>(id, name, std::move(schema), retention));
  return id;
}

Result<Chronicle*> ChronicleGroup::GetChronicle(ChronicleId id) {
  if (id >= chronicles_.size()) {
    return Status::NotFound("no chronicle with id " + std::to_string(id));
  }
  return chronicles_[id].get();
}

Result<const Chronicle*> ChronicleGroup::GetChronicle(ChronicleId id) const {
  if (id >= chronicles_.size()) {
    return Status::NotFound("no chronicle with id " + std::to_string(id));
  }
  return static_cast<const Chronicle*>(chronicles_[id].get());
}

Result<ChronicleId> ChronicleGroup::FindChronicle(const std::string& name) const {
  for (const auto& c : chronicles_) {
    if (c->name() == name) return c->id();
  }
  return Status::NotFound("no chronicle named '" + name + "'");
}

Result<AppendEvent> ChronicleGroup::Append(ChronicleId id,
                                           std::vector<Tuple> tuples) {
  return Append(id, std::move(tuples), last_chronon_ + 1);
}

Result<AppendEvent> ChronicleGroup::Append(ChronicleId id,
                                           std::vector<Tuple> tuples,
                                           Chronon chronon) {
  std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts;
  inserts.emplace_back(id, std::move(tuples));
  return AppendMulti(std::move(inserts), chronon);
}

Result<AppendEvent> ChronicleGroup::AppendMulti(
    std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts,
    Chronon chronon, bool tuples_validated) {
  return AppendWithSeqNum(last_sn_ + 1, chronon, std::move(inserts),
                          tuples_validated);
}

Result<AppendEvent> ChronicleGroup::AppendWithSeqNum(
    SeqNum sn, Chronon chronon,
    std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts,
    bool tuples_validated) {
  if (sn <= last_sn_) {
    return Status::OutOfRange(
        "sequence number " + std::to_string(sn) +
        " is not greater than the group's last sequence number " +
        std::to_string(last_sn_));
  }
  if (chronon < last_chronon_) {
    return Status::OutOfRange("chronon " + std::to_string(chronon) +
                              " regresses below " + std::to_string(last_chronon_));
  }
  if (inserts.empty()) {
    return Status::InvalidArgument("append event has no inserts");
  }
  // Validate everything before mutating anything (atomic tick).
  for (const auto& [id, tuples] : inserts) {
    CHRONICLE_ASSIGN_OR_RETURN(Chronicle * target, GetChronicle(id));
    if (tuples.empty()) {
      return Status::InvalidArgument("empty tuple batch for chronicle '" +
                                     target->name() + "'");
    }
    if (tuples_validated) continue;
    for (const Tuple& t : tuples) {
      CHRONICLE_RETURN_NOT_OK(ValidateTuple(target->schema(), t));
    }
  }

  // The event carries the rows to the maintenance machinery; a chronicle
  // that retains them gets a copy, one that retains nothing only counts.
  AppendEvent event;
  event.sn = sn;
  event.chronon = chronon;
  event.inserts.reserve(inserts.size());
  for (auto& [id, tuples] : inserts) {
    Chronicle& chron = *chronicles_[id];
    if (chron.retention().kind == RetentionPolicy::Kind::kNone) {
      chron.total_appended_ += tuples.size();
      chron.last_sn_ = sn;
      event.inserts.emplace_back(id, std::move(tuples));
    } else {
      event.inserts.emplace_back(id, tuples);
      chron.AppendValidated(sn, std::move(tuples));
    }
  }
  last_sn_ = sn;
  last_chronon_ = chronon;
  return event;
}

Status ChronicleGroup::RestoreCounters(SeqNum last_sn, Chronon last_chronon) {
  if (last_sn_ != 0) {
    return Status::FailedPrecondition(
        "cannot restore counters into a group that has seen appends");
  }
  last_sn_ = last_sn;
  last_chronon_ = last_chronon;
  return Status::OK();
}

Status ChronicleGroup::RestoreChronicleState(
    ChronicleId id, uint64_t total_appended, SeqNum last_sn,
    std::vector<ChronicleRow> retained) {
  CHRONICLE_ASSIGN_OR_RETURN(Chronicle * chron, GetChronicle(id));
  if (chron->total_appended() != 0) {
    return Status::FailedPrecondition("chronicle '" + chron->name() +
                                      "' is not empty; cannot restore into it");
  }
  for (const ChronicleRow& row : retained) {
    CHRONICLE_RETURN_NOT_OK(ValidateTuple(chron->schema(), row.values));
  }
  for (ChronicleRow& row : retained) {
    chron->AppendValidated(row.sn, {std::move(row.values)});
  }
  // AppendValidated counted the retained rows; overwrite with the true
  // stream counters.
  chron->total_appended_ = total_appended;
  chron->last_sn_ = last_sn;
  return Status::OK();
}

size_t ChronicleGroup::MemoryFootprint() const {
  size_t total = 0;
  for (const auto& c : chronicles_) total += c->MemoryFootprint();
  return total;
}

}  // namespace chronicle
