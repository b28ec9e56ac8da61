#include "zidian/zidian.h"

#include "zidian/connection.h"

namespace zidian {

Zidian::Zidian(const Catalog* catalog, Cluster* cluster,
               BaavSchema baav_schema, ZidianOptions options)
    : catalog_(catalog),
      cluster_(cluster),
      store_(cluster, std::move(baav_schema), catalog, options.store),
      options_(options) {}

Connection Zidian::Connect() { return Connection(this); }

Status Zidian::LoadTaav(const std::map<std::string, Relation>& db) {
  for (const auto& [name, data] : db) {
    ZIDIAN_ASSIGN_OR_RETURN(TableSchema schema, catalog_->Get(name));
    ZIDIAN_RETURN_NOT_OK(TaavLoadRelation(cluster_, schema, data));
  }
  cluster_->FlushAll();
  return Status::OK();
}

Status Zidian::BuildBaav(const std::map<std::string, Relation>& db) {
  ZIDIAN_RETURN_NOT_OK(store_.BuildAll(db));
  cluster_->FlushAll();
  return Status::OK();
}

// Both mutations run BaaV maintenance's read phase before any write, so a
// failed read (an unreachable node) changes neither layout.
Status Zidian::Insert(const std::string& relation, const Tuple& tuple) {
  ZIDIAN_ASSIGN_OR_RETURN(TableSchema schema, catalog_->Get(relation));
  ZIDIAN_ASSIGN_OR_RETURN(BaavStore::Maintenance update,
                          store_.ReadForInsert(relation, tuple));
  Relation one(schema.AttributeNames());
  one.Add(tuple);
  ZIDIAN_RETURN_NOT_OK(TaavLoadRelation(cluster_, schema, one));
  return store_.Install(update);
}

Status Zidian::Delete(const std::string& relation, const Tuple& tuple) {
  ZIDIAN_ASSIGN_OR_RETURN(TableSchema schema, catalog_->Get(relation));
  Tuple pk;
  for (const auto& k : schema.primary_key()) {
    int i = schema.ColumnIndex(k);
    pk.push_back(tuple[static_cast<size_t>(i)]);
  }
  ZIDIAN_ASSIGN_OR_RETURN(BaavStore::Maintenance update,
                          store_.ReadForDelete(relation, tuple));
  ZIDIAN_RETURN_NOT_OK(TaavDeleteTuple(cluster_, schema, pk));
  return store_.Install(update);
}

}  // namespace zidian
