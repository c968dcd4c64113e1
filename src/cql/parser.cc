#include "cql/parser.h"

#include <cctype>

namespace chronicle {
namespace cql {

namespace {

// Recursive-descent parser over a token vector.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseOne() {
    CHRONICLE_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
    ConsumeSymbol(";");
    if (!AtEnd()) {
      return Error("unexpected trailing input starting with '" +
                   Peek().text + "'");
    }
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (!AtEnd()) {
      CHRONICLE_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
      out.push_back(std::move(stmt));
      if (!ConsumeSymbol(";") && !AtEnd()) {
        return Error("expected ';' between statements");
      }
    }
    return out;
  }

 private:
  // --- token helpers ---

  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const std::string& kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && t.upper == kw;
  }
  bool ConsumeKeyword(const std::string& kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (ConsumeKeyword(kw)) return Status::OK();
    return Error("expected " + kw + " but found '" + Peek().text + "'");
  }
  bool PeekSymbol(const std::string& sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == sym;
  }
  bool ConsumeSymbol(const std::string& sym) {
    if (!PeekSymbol(sym)) return false;
    Advance();
    return true;
  }
  Status ExpectSymbol(const std::string& sym) {
    if (ConsumeSymbol(sym)) return Status::OK();
    return Error("expected '" + sym + "' but found '" + Peek().text + "'");
  }
  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status(StatusCode::kParseError,
                    "expected " + what + " but found '" + Peek().text +
                        "' at offset " + std::to_string(Peek().position));
    }
    return Advance().text;
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " (at offset " +
                              std::to_string(Peek().position) + ")");
  }

  // --- grammar ---

  Result<Statement> ParseStatementInner() {
    if (PeekKeyword("CREATE")) {
      if (PeekKeyword("CHRONICLE", 1)) return ParseCreateChronicle();
      if (PeekKeyword("RELATION", 1)) return ParseCreateRelation();
      if (PeekKeyword("VIEW", 1)) {
        return ParseCreateView(ViewTarget::Kind::kPersistent);
      }
      if (PeekKeyword("PERIODIC", 1) && PeekKeyword("VIEW", 2)) {
        Advance();  // CREATE (PERIODIC consumed in ParseCreateView)
        return ParseCreateViewTail(ViewTarget::Kind::kPeriodic);
      }
      if (PeekKeyword("SLIDING", 1) && PeekKeyword("VIEW", 2)) {
        Advance();  // CREATE
        return ParseCreateViewTail(ViewTarget::Kind::kSliding);
      }
      return Error(
          "expected CHRONICLE, RELATION, [PERIODIC|SLIDING] VIEW after CREATE");
    }
    if (PeekKeyword("INSERT")) return ParseInsert();
    if (PeekKeyword("UPDATE")) return ParseUpdate();
    if (PeekKeyword("DELETE")) return ParseDelete();
    if (PeekKeyword("DROP")) return ParseDrop();
    if (PeekKeyword("EXPLAIN")) return ParseExplain();
    if (PeekKeyword("SHOW")) return ParseShow();
    if (PeekKeyword("CHECKPOINT")) return ParseCheckpoint();
    if (PeekKeyword("RESTORE")) return ParseRestore();
    if (PeekKeyword("SELECT")) {
      SelectStmt stmt;
      CHRONICLE_ASSIGN_OR_RETURN(stmt.query, ParseSelectQuery());
      return Statement(std::move(stmt));
    }
    return Error("expected a statement, found '" + Peek().text + "'");
  }

  Result<DataType> ParseType() {
    CHRONICLE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("a type"));
    std::string upper;
    for (char c : name) upper += static_cast<char>(std::toupper(c));
    if (upper == "INT64" || upper == "INT" || upper == "BIGINT") {
      return DataType::kInt64;
    }
    if (upper == "DOUBLE" || upper == "FLOAT" || upper == "REAL") {
      return DataType::kDouble;
    }
    if (upper == "STRING" || upper == "TEXT" || upper == "VARCHAR") {
      return DataType::kString;
    }
    return Status::ParseError("unknown type '" + name + "'");
  }

  Result<std::vector<ColumnDef>> ParseColumnDefs() {
    CHRONICLE_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<ColumnDef> columns;
    do {
      ColumnDef def;
      CHRONICLE_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("a column name"));
      CHRONICLE_ASSIGN_OR_RETURN(def.type, ParseType());
      columns.push_back(std::move(def));
    } while (ConsumeSymbol(","));
    CHRONICLE_RETURN_NOT_OK(ExpectSymbol(")"));
    return columns;
  }

  Result<Statement> ParseCreateChronicle() {
    Advance();  // CREATE
    Advance();  // CHRONICLE
    CreateChronicleStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("a chronicle name"));
    CHRONICLE_ASSIGN_OR_RETURN(stmt.columns, ParseColumnDefs());
    if (ConsumeKeyword("RETAIN")) {
      if (ConsumeKeyword("ALL")) {
        stmt.retention = RetentionPolicy::All();
      } else if (ConsumeKeyword("NONE")) {
        stmt.retention = RetentionPolicy::None();
      } else if (ConsumeKeyword("LAST")) {
        if (Peek().type != TokenType::kInteger) {
          return Error("expected a row count after RETAIN LAST");
        }
        stmt.retention =
            RetentionPolicy::Window(static_cast<size_t>(Advance().int_value));
      } else if (ConsumeKeyword("HOT")) {
        // Tiered: the newest n rows stay in memory, older rows seal into
        // on-disk segments (needs a database opened with a data_dir).
        if (Peek().type != TokenType::kInteger) {
          return Error("expected a row count after RETAIN HOT");
        }
        stmt.retention =
            RetentionPolicy::Tiered(static_cast<size_t>(Advance().int_value));
      } else {
        return Error("expected ALL, NONE, LAST, or HOT after RETAIN");
      }
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseCreateRelation() {
    Advance();  // CREATE
    Advance();  // RELATION
    CreateRelationStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("a relation name"));
    CHRONICLE_ASSIGN_OR_RETURN(stmt.columns, ParseColumnDefs());
    if (ConsumeKeyword("KEY")) {
      CHRONICLE_ASSIGN_OR_RETURN(stmt.key_column,
                                 ExpectIdentifier("a key column"));
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseCreateView(ViewTarget::Kind kind) {
    Advance();  // CREATE
    return ParseCreateViewTail(kind);
  }

  Result<Chronon> ExpectChronon(const std::string& what) {
    bool negative = ConsumeSymbol("-");
    if (Peek().type != TokenType::kInteger) {
      return Status(StatusCode::kParseError,
                    "expected an integer " + what + ", found '" + Peek().text +
                        "'");
    }
    const int64_t v = Advance().int_value;
    return static_cast<Chronon>(negative ? -v : v);
  }

  // Parses "[PERIODIC|SLIDING] VIEW name AS <select> [OVER ...]" after the
  // leading CREATE has been consumed.
  Result<Statement> ParseCreateViewTail(ViewTarget::Kind kind) {
    if (kind == ViewTarget::Kind::kPeriodic) {
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("PERIODIC"));
    } else if (kind == ViewTarget::Kind::kSliding) {
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("SLIDING"));
    }
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("VIEW"));
    CreateViewStmt stmt;
    stmt.target.kind = kind;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("a view name"));
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("AS"));
    CHRONICLE_ASSIGN_OR_RETURN(stmt.query, ParseSelectQuery());
    if (kind == ViewTarget::Kind::kPeriodic) {
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("OVER"));
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("PERIOD"));
      CHRONICLE_ASSIGN_OR_RETURN(stmt.target.period, ExpectChronon("period"));
      if (ConsumeKeyword("ORIGIN")) {
        CHRONICLE_ASSIGN_OR_RETURN(stmt.target.origin, ExpectChronon("origin"));
      }
      if (ConsumeKeyword("EXPIRE")) {
        CHRONICLE_RETURN_NOT_OK(ExpectKeyword("AFTER"));
        CHRONICLE_ASSIGN_OR_RETURN(stmt.target.expire_after,
                                   ExpectChronon("expiration"));
      }
    } else if (kind == ViewTarget::Kind::kSliding) {
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("OVER"));
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("WINDOW"));
      CHRONICLE_ASSIGN_OR_RETURN(Chronon panes, ExpectChronon("pane count"));
      stmt.target.num_panes = panes;
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("PANES"));
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("OF"));
      CHRONICLE_ASSIGN_OR_RETURN(stmt.target.pane_width,
                                 ExpectChronon("pane width"));
      if (ConsumeKeyword("ORIGIN")) {
        CHRONICLE_ASSIGN_OR_RETURN(stmt.target.origin, ExpectChronon("origin"));
      }
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseDrop() {
    Advance();  // DROP
    DropStmt stmt;
    if (ConsumeKeyword("VIEW")) {
      stmt.what = DropStmt::What::kView;
    } else if (ConsumeKeyword("RELATION")) {
      stmt.what = DropStmt::What::kRelation;
    } else {
      return Error("expected VIEW or RELATION after DROP (chronicles cannot "
                   "be dropped: the stream is the system of record)");
    }
    CHRONICLE_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("a name"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseExplain() {
    Advance();  // EXPLAIN
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("VIEW"));
    ExplainStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.view, ExpectIdentifier("a view name"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseShow() {
    Advance();  // SHOW
    ShowStmt stmt;
    if (ConsumeKeyword("CHRONICLES")) {
      stmt.what = ShowStmt::What::kChronicles;
    } else if (ConsumeKeyword("RELATIONS")) {
      stmt.what = ShowStmt::What::kRelations;
    } else if (ConsumeKeyword("VIEWS")) {
      stmt.what = ShowStmt::What::kViews;
    } else {
      return Error("expected CHRONICLES, RELATIONS, or VIEWS after SHOW");
    }
    return Statement(std::move(stmt));
  }

  Result<std::string> ExpectStringLiteral(const std::string& what) {
    if (Peek().type != TokenType::kString) {
      return Status(StatusCode::kParseError,
                    "expected a quoted " + what + ", found '" + Peek().text +
                        "'");
    }
    return Advance().text;
  }

  Result<Statement> ParseCheckpoint() {
    Advance();  // CHECKPOINT
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("TO"));
    CheckpointStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.path, ExpectStringLiteral("path"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseRestore() {
    Advance();  // RESTORE
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("FROM"));
    RestoreStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.path, ExpectStringLiteral("path"));
    return Statement(std::move(stmt));
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    static const struct {
      const char* keyword;
      AggKind kind;
    } kAggs[] = {{"COUNT", AggKind::kCount}, {"SUM", AggKind::kSum},
                 {"MIN", AggKind::kMin},     {"MAX", AggKind::kMax},
                 {"AVG", AggKind::kAvg},     {"TIERED", AggKind::kTieredDiscount},
                 {"FIRST", AggKind::kFirst}, {"LAST", AggKind::kLast}};
    for (const auto& agg : kAggs) {
      if (PeekKeyword(agg.keyword) && PeekSymbol("(", 1)) {
        Advance();  // function name
        Advance();  // (
        item.is_aggregate = true;
        item.agg_kind = agg.kind;
        if (item.agg_kind == AggKind::kCount && ConsumeSymbol("*")) {
          // COUNT(*)
        } else {
          CHRONICLE_ASSIGN_OR_RETURN(item.column,
                                     ExpectIdentifier("an input column"));
        }
        if (item.agg_kind == AggKind::kTieredDiscount) {
          while (ConsumeSymbol(",")) {
            Tier tier;
            CHRONICLE_ASSIGN_OR_RETURN(tier.threshold, ParseNumber("threshold"));
            CHRONICLE_RETURN_NOT_OK(ExpectSymbol(":"));
            CHRONICLE_ASSIGN_OR_RETURN(tier.rate, ParseNumber("rate"));
            item.tiers.push_back(tier);
          }
          if (item.tiers.empty()) {
            return Error("TIERED requires at least one threshold:rate tier");
          }
        }
        CHRONICLE_RETURN_NOT_OK(ExpectSymbol(")"));
        if (ConsumeKeyword("AS")) {
          CHRONICLE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("an alias"));
        }
        return item;
      }
    }
    // Not an aggregate call: parse a general expression. A bare column
    // reference stays a plain column item; anything richer becomes a
    // computed item and must be aliased.
    CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr expr, ParseOrExpr());
    if (expr->kind() == ExprKind::kColumn) {
      item.column = expr->column_name();
    } else {
      item.expr = std::move(expr);
    }
    if (ConsumeKeyword("AS")) {
      CHRONICLE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("an alias"));
    }
    if (item.expr != nullptr && item.alias.empty()) {
      return Error("computed select items require AS <alias>");
    }
    return item;
  }

  Result<double> ParseNumber(const std::string& what) {
    if (Peek().type == TokenType::kInteger) {
      return static_cast<double>(Advance().int_value);
    }
    if (Peek().type == TokenType::kFloat) {
      return Advance().float_value;
    }
    return Status(StatusCode::kParseError,
                  "expected a numeric " + what + ", found '" + Peek().text + "'");
  }

  Result<SelectQuery> ParseSelectQuery() {
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SelectQuery query;
    if (ConsumeSymbol("*")) {
      query.select_star = true;
    } else {
      do {
        CHRONICLE_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
        query.items.push_back(std::move(item));
      } while (ConsumeSymbol(","));
    }
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("FROM"));
    CHRONICLE_ASSIGN_OR_RETURN(query.from, ExpectIdentifier("a source name"));
    if (ConsumeKeyword("JOIN")) {
      query.join.kind = JoinClause::Kind::kKey;
      CHRONICLE_ASSIGN_OR_RETURN(query.join.relation,
                                 ExpectIdentifier("a relation name"));
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("ON"));
      CHRONICLE_ASSIGN_OR_RETURN(query.join.left_column,
                                 ExpectIdentifier("a chronicle column"));
      CHRONICLE_RETURN_NOT_OK(ExpectSymbol("="));
      CHRONICLE_ASSIGN_OR_RETURN(query.join.right_column,
                                 ExpectIdentifier("a relation column"));
    } else if (ConsumeKeyword("CROSS")) {
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      query.join.kind = JoinClause::Kind::kCross;
      CHRONICLE_ASSIGN_OR_RETURN(query.join.relation,
                                 ExpectIdentifier("a relation name"));
    }
    if (ConsumeKeyword("WHERE")) {
      CHRONICLE_ASSIGN_OR_RETURN(query.where, ParseOrExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        CHRONICLE_ASSIGN_OR_RETURN(std::string col,
                                   ExpectIdentifier("a grouping column"));
        query.group_by.push_back(std::move(col));
      } while (ConsumeSymbol(","));
    }
    return query;
  }

  // --- expressions ---

  Result<ScalarExprPtr> ParseOrExpr() {
    CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseAndExpr());
    while (ConsumeKeyword("OR")) {
      CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseAndExpr());
      lhs = ScalarExpr::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ScalarExprPtr> ParseAndExpr() {
    CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseNotExpr());
    while (ConsumeKeyword("AND")) {
      CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseNotExpr());
      lhs = ScalarExpr::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ScalarExprPtr> ParseNotExpr() {
    if (ConsumeKeyword("NOT")) {
      CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr operand, ParseNotExpr());
      return ScalarExpr::Not(std::move(operand));
    }
    return ParseComparison();
  }

  Result<ScalarExprPtr> ParseComparison() {
    CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseAdditive());
    static const struct {
      const char* symbol;
      CompareOp op;
    } kOps[] = {{"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
                {"<>", CompareOp::kNe}, {"=", CompareOp::kEq},
                {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
    for (const auto& candidate : kOps) {
      if (ConsumeSymbol(candidate.symbol)) {
        CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseAdditive());
        return ScalarExpr::Compare(candidate.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ScalarExprPtr> ParseAdditive() {
    CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParseMultiplicative());
    while (true) {
      if (ConsumeSymbol("+")) {
        CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseMultiplicative());
        lhs = ScalarExpr::Arith(ArithOp::kAdd, std::move(lhs), std::move(rhs));
      } else if (ConsumeSymbol("-")) {
        CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParseMultiplicative());
        lhs = ScalarExpr::Arith(ArithOp::kSub, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ScalarExprPtr> ParseMultiplicative() {
    CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr lhs, ParsePrimary());
    while (true) {
      if (ConsumeSymbol("*")) {
        CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParsePrimary());
        lhs = ScalarExpr::Arith(ArithOp::kMul, std::move(lhs), std::move(rhs));
      } else if (ConsumeSymbol("/")) {
        CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr rhs, ParsePrimary());
        lhs = ScalarExpr::Arith(ArithOp::kDiv, std::move(lhs), std::move(rhs));
      } else {
        return lhs;
      }
    }
  }

  Result<ScalarExprPtr> ParsePrimary() {
    if (PeekKeyword("CASE")) return ParseCase();
    if (ConsumeSymbol("(")) {
      CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr inner, ParseOrExpr());
      CHRONICLE_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (ConsumeSymbol("-")) {
      // A negative number is a literal (so a key-pinned SELECT can probe
      // it), folded to exactly what `0 - lit` evaluates to: the lexer's
      // integers are non-negative, so 0 - n never overflows, and 0.0 - 0.0
      // is +0.0, not -0.0.
      const Token& num = Peek();
      if (num.type == TokenType::kInteger) {
        Advance();
        return Lit(Value(int64_t{0} - num.int_value));
      }
      if (num.type == TokenType::kFloat) {
        Advance();
        return Lit(Value(0.0 - num.float_value));
      }
      CHRONICLE_ASSIGN_OR_RETURN(ScalarExprPtr inner, ParsePrimary());
      return ScalarExpr::Arith(ArithOp::kSub, Lit(Value(int64_t{0})),
                               std::move(inner));
    }
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger:
        Advance();
        return Lit(Value(t.int_value));
      case TokenType::kFloat:
        Advance();
        return Lit(Value(t.float_value));
      case TokenType::kString:
        Advance();
        return Lit(Value(t.text));
      case TokenType::kIdentifier: {
        Advance();
        if (t.upper == "NULL") return Lit(Value());
        if (t.text == "$sn") return ScalarExpr::SeqNumRef();
        if (t.text == "$chronon") return ScalarExpr::ChrononRef();
        return Col(t.text);
      }
      default:
        return Error("expected an expression, found '" + t.text + "'");
    }
  }

  // CASE WHEN c THEN v [WHEN ...] [ELSE v] END; a missing ELSE yields NULL.
  Result<ScalarExprPtr> ParseCase() {
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("CASE"));
    std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> branches;
    while (ConsumeKeyword("WHEN")) {
      std::pair<ScalarExprPtr, ScalarExprPtr> branch;
      CHRONICLE_ASSIGN_OR_RETURN(branch.first, ParseOrExpr());
      CHRONICLE_RETURN_NOT_OK(ExpectKeyword("THEN"));
      CHRONICLE_ASSIGN_OR_RETURN(branch.second, ParseOrExpr());
      branches.push_back(std::move(branch));
    }
    if (branches.empty()) {
      return Error("CASE requires at least one WHEN branch");
    }
    ScalarExprPtr else_value = Lit(Value());
    if (ConsumeKeyword("ELSE")) {
      CHRONICLE_ASSIGN_OR_RETURN(else_value, ParseOrExpr());
    }
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("END"));
    return ScalarExpr::Case(std::move(branches), std::move(else_value));
  }

  // --- literals (for INSERT/UPDATE/DELETE) ---

  Result<Value> ParseLiteralValue() {
    bool negative = ConsumeSymbol("-");
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger:
        Advance();
        return Value(negative ? -t.int_value : t.int_value);
      case TokenType::kFloat:
        Advance();
        return Value(negative ? -t.float_value : t.float_value);
      case TokenType::kString:
        if (negative) return Error("'-' before a string literal");
        Advance();
        return Value(t.text);
      case TokenType::kIdentifier:
        if (t.upper == "NULL") {
          Advance();
          return Value();
        }
        return Error("expected a literal, found '" + t.text + "'");
      default:
        return Error("expected a literal, found '" + t.text + "'");
    }
  }

  Result<Statement> ParseInsert() {
    Advance();  // INSERT
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("INTO"));
    InsertStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.target, ExpectIdentifier("a target name"));
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    do {
      CHRONICLE_RETURN_NOT_OK(ExpectSymbol("("));
      Tuple row;
      do {
        CHRONICLE_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        row.push_back(std::move(v));
      } while (ConsumeSymbol(","));
      CHRONICLE_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt.rows.push_back(std::move(row));
    } while (ConsumeSymbol(","));
    if (ConsumeKeyword("AT")) {
      if (Peek().type != TokenType::kInteger) {
        return Error("expected an integer chronon after AT");
      }
      stmt.at = static_cast<Chronon>(Advance().int_value);
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseUpdate() {
    Advance();  // UPDATE
    UpdateStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier("a relation"));
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("SET"));
    do {
      std::pair<std::string, Value> set;
      CHRONICLE_ASSIGN_OR_RETURN(set.first, ExpectIdentifier("a column"));
      CHRONICLE_RETURN_NOT_OK(ExpectSymbol("="));
      CHRONICLE_ASSIGN_OR_RETURN(set.second, ParseLiteralValue());
      stmt.sets.push_back(std::move(set));
    } while (ConsumeSymbol(","));
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("WHERE"));
    CHRONICLE_ASSIGN_OR_RETURN(stmt.where_column, ExpectIdentifier("a column"));
    CHRONICLE_RETURN_NOT_OK(ExpectSymbol("="));
    CHRONICLE_ASSIGN_OR_RETURN(stmt.where_value, ParseLiteralValue());
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseDelete() {
    Advance();  // DELETE
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("FROM"));
    DeleteStmt stmt;
    CHRONICLE_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier("a relation"));
    CHRONICLE_RETURN_NOT_OK(ExpectKeyword("WHERE"));
    CHRONICLE_ASSIGN_OR_RETURN(stmt.where_column, ExpectIdentifier("a column"));
    CHRONICLE_RETURN_NOT_OK(ExpectSymbol("="));
    CHRONICLE_ASSIGN_OR_RETURN(stmt.where_value, ParseLiteralValue());
    return Statement(std::move(stmt));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& input) {
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.ParseOne();
}

Result<std::vector<Statement>> ParseScript(const std::string& input) {
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

}  // namespace cql
}  // namespace chronicle
