#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "checkpoint/serde.h"
#include "wal/wal_file.h"

namespace chronicle {
namespace checkpoint {

namespace {

constexpr uint32_t kMagic = 0x43484b50;  // "CHKP"
// v2 added the WAL watermark after the append counter; v1 images (no
// watermark field) still restore.
constexpr uint32_t kVersion = 2;

void WriteAggState(Writer* w, const AggState& state) {
  w->WriteI64(state.count);
  w->WriteI64(state.sum_i);
  w->WriteDouble(state.sum_d);
  w->WriteValue(state.min);
  w->WriteValue(state.max);
  w->WriteValue(state.first);
  w->WriteValue(state.last);
  w->WriteTuple(state.custom);
}

Result<AggState> ReadAggState(Reader* r) {
  AggState state;
  CHRONICLE_ASSIGN_OR_RETURN(state.count, r->ReadI64());
  CHRONICLE_ASSIGN_OR_RETURN(state.sum_i, r->ReadI64());
  CHRONICLE_ASSIGN_OR_RETURN(state.sum_d, r->ReadDouble());
  CHRONICLE_ASSIGN_OR_RETURN(state.min, r->ReadValue());
  CHRONICLE_ASSIGN_OR_RETURN(state.max, r->ReadValue());
  CHRONICLE_ASSIGN_OR_RETURN(state.first, r->ReadValue());
  CHRONICLE_ASSIGN_OR_RETURN(state.last, r->ReadValue());
  CHRONICLE_ASSIGN_OR_RETURN(state.custom, r->ReadTuple());
  return state;
}

void WriteViewGroups(Writer* w, const PersistentView& view) {
  w->WriteU64(view.size());
  view.VisitGroups([&](const Tuple& key, const std::vector<AggState>& states,
                       int64_t multiplicity) {
    w->WriteTuple(key);
    w->WriteI64(multiplicity);
    w->WriteU32(static_cast<uint32_t>(states.size()));
    for (const AggState& state : states) WriteAggState(w, state);
  });
}

// Reads one serialized view-group record.
struct GroupRecord {
  Tuple key;
  int64_t multiplicity;
  std::vector<AggState> states;
};

Result<GroupRecord> ReadGroupRecord(Reader* r) {
  GroupRecord record;
  CHRONICLE_ASSIGN_OR_RETURN(record.key, r->ReadTuple());
  CHRONICLE_ASSIGN_OR_RETURN(record.multiplicity, r->ReadI64());
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t num_states, r->ReadU32());
  record.states.reserve(std::min<size_t>(num_states, r->remaining()));
  for (uint32_t i = 0; i < num_states; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(AggState state, ReadAggState(r));
    record.states.push_back(std::move(state));
  }
  return record;
}

}  // namespace

Result<std::string> SaveDatabase(const ChronicleDatabase& db,
                                 uint64_t wal_watermark) {
  Writer w;
  w.WriteU32(kMagic);
  w.WriteU32(kVersion);
  w.WriteU64(db.appends_processed());
  w.WriteU64(wal_watermark);

  // Chronicle group.
  const ChronicleGroup& group = db.group();
  w.WriteU64(group.last_sn());
  w.WriteI64(group.last_chronon());
  w.WriteU32(static_cast<uint32_t>(group.num_chronicles()));
  for (ChronicleId id = 0; id < group.num_chronicles(); ++id) {
    const Chronicle* chron = group.GetChronicle(id).value();
    w.WriteString(chron->name());
    w.WriteU64(chron->total_appended());
    w.WriteU64(chron->last_sn());
    w.WriteU64(chron->retained().size());
    for (const ChronicleRow& row : chron->retained()) {
      w.WriteU64(row.sn);
      w.WriteTuple(row.values);
    }
  }

  // Relations.
  uint32_t num_relations = 0;
  db.ForEachRelation([&](const Relation&) { ++num_relations; });
  w.WriteU32(num_relations);
  db.ForEachRelation([&](const Relation& rel) {
    w.WriteString(rel.name());
    w.WriteU64(rel.size());
    for (const Tuple& row : rel.rows()) w.WriteTuple(row);
  });

  // Persistent views (live slots only).
  const ViewManager& views = db.view_manager();
  w.WriteU32(static_cast<uint32_t>(views.num_live_views()));
  for (ViewId id = 0; id < views.num_views(); ++id) {
    Result<const PersistentView*> live = views.GetView(id);
    if (!live.ok()) continue;  // dropped view
    const PersistentView* view = *live;
    w.WriteString(view->name());
    w.WriteU64(view->ticks_applied());
    w.WriteU64(view->delta_rows_applied());
    WriteViewGroups(&w, *view);
  }

  // Periodic view sets.
  uint32_t num_periodic = 0;
  db.ForEachPeriodicView([&](const PeriodicViewSet&) { ++num_periodic; });
  w.WriteU32(num_periodic);
  db.ForEachPeriodicView([&](const PeriodicViewSet& set) {
    w.WriteString(set.name());
    w.WriteU64(set.instances_created());
    w.WriteU64(set.instances_expired());
    w.WriteU64(set.num_active_instances());
    set.VisitInstances([&](int64_t index, const PersistentView& instance) {
      w.WriteI64(index);
      WriteViewGroups(&w, instance);
    });
  });

  // Sliding-window views.
  uint32_t num_sliding = 0;
  db.ForEachSlidingView([&](const SlidingWindowView&) { ++num_sliding; });
  w.WriteU32(num_sliding);
  db.ForEachSlidingView([&](const SlidingWindowView& view) {
    w.WriteString(view.name());
    w.WriteI64(view.current_pane());
    uint64_t groups = 0;
    view.VisitPanes(
        [&](int64_t, const Tuple&, const std::vector<AggState>&) { ++groups; });
    w.WriteU64(groups);
    view.VisitPanes([&](int64_t pane, const Tuple& key,
                        const std::vector<AggState>& states) {
      w.WriteI64(pane);
      w.WriteTuple(key);
      w.WriteU32(static_cast<uint32_t>(states.size()));
      for (const AggState& state : states) WriteAggState(&w, state);
    });
  });

  return w.buffer();
}

Status RestoreDatabase(const std::string& image, ChronicleDatabase* db) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (db->appends_processed() != 0 || db->group().last_sn() != 0) {
    return Status::FailedPrecondition(
        "checkpoints must be restored into a database that has processed no "
        "appends (re-apply the DDL on a fresh instance first)");
  }
  Reader r(image);
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return Status::ParseError("not a chronicle checkpoint (bad magic)");
  }
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != 1 && version != kVersion) {
    return Status::ParseError("unsupported checkpoint version " +
                              std::to_string(version));
  }
  CHRONICLE_ASSIGN_OR_RETURN(uint64_t appends, r.ReadU64());
  if (version >= 2) {
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t watermark, r.ReadU64());
    (void)watermark;  // recovery reads it via CheckpointWatermark
  }

  // Chronicle group.
  CHRONICLE_ASSIGN_OR_RETURN(uint64_t group_sn, r.ReadU64());
  CHRONICLE_ASSIGN_OR_RETURN(int64_t group_chronon, r.ReadI64());
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t num_chronicles, r.ReadU32());
  for (uint32_t i = 0; i < num_chronicles; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t total_appended, r.ReadU64());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t last_sn, r.ReadU64());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t retained, r.ReadU64());
    std::vector<ChronicleRow> rows;
    rows.reserve(std::min<size_t>(retained, r.remaining()));
    for (uint64_t j = 0; j < retained; ++j) {
      ChronicleRow row;
      CHRONICLE_ASSIGN_OR_RETURN(row.sn, r.ReadU64());
      CHRONICLE_ASSIGN_OR_RETURN(row.values, r.ReadTuple());
      rows.push_back(std::move(row));
    }
    CHRONICLE_ASSIGN_OR_RETURN(ChronicleId id,
                               db->group().FindChronicle(name));
    CHRONICLE_RETURN_NOT_OK(db->group().RestoreChronicleState(
        id, total_appended, last_sn, std::move(rows)));
  }
  CHRONICLE_RETURN_NOT_OK(db->group().RestoreCounters(group_sn, group_chronon));

  // Relations.
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t num_relations, r.ReadU32());
  for (uint32_t i = 0; i < num_relations; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, db->GetRelation(name));
    if (rel->size() != 0) {
      return Status::FailedPrecondition("relation '" + name +
                                        "' is not empty; cannot restore");
    }
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t rows, r.ReadU64());
    for (uint64_t j = 0; j < rows; ++j) {
      CHRONICLE_ASSIGN_OR_RETURN(Tuple row, r.ReadTuple());
      CHRONICLE_RETURN_NOT_OK(rel->Insert(std::move(row)));
    }
  }

  // Persistent views.
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t num_views, r.ReadU32());
  for (uint32_t i = 0; i < num_views; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    CHRONICLE_ASSIGN_OR_RETURN(PersistentView * view,
                               db->view_manager().FindView(name));
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t ticks, r.ReadU64());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t delta_rows, r.ReadU64());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t groups, r.ReadU64());
    for (uint64_t j = 0; j < groups; ++j) {
      CHRONICLE_ASSIGN_OR_RETURN(GroupRecord record, ReadGroupRecord(&r));
      CHRONICLE_RETURN_NOT_OK(view->RestoreGroup(std::move(record.key),
                                                 std::move(record.states),
                                                 record.multiplicity));
    }
    view->RestoreCounters(ticks, delta_rows);
  }

  // Periodic view sets.
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t num_periodic, r.ReadU32());
  for (uint32_t i = 0; i < num_periodic; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    CHRONICLE_ASSIGN_OR_RETURN(PeriodicViewSet * set,
                               db->GetPeriodicViewMutable(name));
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t created, r.ReadU64());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t expired, r.ReadU64());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t instances, r.ReadU64());
    for (uint64_t j = 0; j < instances; ++j) {
      CHRONICLE_ASSIGN_OR_RETURN(int64_t index, r.ReadI64());
      CHRONICLE_ASSIGN_OR_RETURN(uint64_t groups, r.ReadU64());
      for (uint64_t k = 0; k < groups; ++k) {
        CHRONICLE_ASSIGN_OR_RETURN(GroupRecord record, ReadGroupRecord(&r));
        CHRONICLE_RETURN_NOT_OK(set->RestoreInstanceGroup(
            index, std::move(record.key), std::move(record.states),
            record.multiplicity));
      }
    }
    set->RestoreCounters(created, expired);
  }

  // Sliding-window views.
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t num_sliding, r.ReadU32());
  for (uint32_t i = 0; i < num_sliding; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    CHRONICLE_ASSIGN_OR_RETURN(SlidingWindowView * view,
                               db->GetSlidingViewMutable(name));
    CHRONICLE_ASSIGN_OR_RETURN(int64_t current_pane, r.ReadI64());
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t groups, r.ReadU64());
    for (uint64_t j = 0; j < groups; ++j) {
      CHRONICLE_ASSIGN_OR_RETURN(int64_t pane, r.ReadI64());
      CHRONICLE_ASSIGN_OR_RETURN(Tuple key, r.ReadTuple());
      CHRONICLE_ASSIGN_OR_RETURN(uint32_t num_states, r.ReadU32());
      std::vector<AggState> states;
      states.reserve(std::min<size_t>(num_states, r.remaining()));
      for (uint32_t k = 0; k < num_states; ++k) {
        CHRONICLE_ASSIGN_OR_RETURN(AggState state, ReadAggState(&r));
        states.push_back(std::move(state));
      }
      CHRONICLE_RETURN_NOT_OK(
          view->RestorePaneGroup(pane, std::move(key), std::move(states)));
    }
    view->RestoreCurrentPane(current_pane);
  }

  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes in checkpoint (" +
                              std::to_string(r.remaining()) + ")");
  }
  db->RestoreAppendsProcessed(appends);
  return Status::OK();
}

Result<uint64_t> CheckpointWatermark(const std::string& image) {
  Reader r(image);
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return Status::ParseError("not a chronicle checkpoint (bad magic)");
  }
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != 1 && version != kVersion) {
    return Status::ParseError("unsupported checkpoint version " +
                              std::to_string(version));
  }
  if (version < 2) return uint64_t{0};
  CHRONICLE_RETURN_NOT_OK(r.ReadU64().status());  // appends_processed
  return r.ReadU64();
}

Status SaveDatabaseToFile(const ChronicleDatabase& db,
                          const std::string& path) {
  CHRONICLE_ASSIGN_OR_RETURN(std::string image, SaveDatabase(db));
  // Never truncate the previous checkpoint in place: a crash mid-write
  // must leave it restorable.
  return wal::AtomicWriteFile(path, image);
}

Status RestoreDatabaseFromFile(const std::string& path, ChronicleDatabase* db) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open checkpoint '" + path + "'");
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return RestoreDatabase(image, db);
}

}  // namespace checkpoint
}  // namespace chronicle
