#include "corpus/challenges.hpp"

#include <stdexcept>
#include <utility>

#include "ast/render.hpp"

namespace sca::corpus {
namespace {

using namespace sca::ast;  // NOLINT: factory-heavy builder file

const TypeRef kInt{BaseType::Int, false};
const TypeRef kLL{BaseType::LongLong, false};
const TypeRef kDouble{BaseType::Double, false};
const TypeRef kBool{BaseType::Bool, false};
const TypeRef kChar{BaseType::Char, false};
const TypeRef kString{BaseType::String, false};
const TypeRef kVecInt{BaseType::Int, true};
const TypeRef kVecLL{BaseType::LongLong, true};

// Build arena for the unit currently under construction. The node
// factories are Arena members now; these same-named file-local wrappers
// keep the challenge definitions below reading exactly as before. Each
// make*() finishes with unitWithMain(), which adopts the accumulated pool
// into the new unit and leaves a fresh arena for the next builder. Only
// builtCatalogue()'s once-run initializer calls the builders, so a single
// file-scope arena is safe.
Arena gArena;
Arena& A() { return gArena; }

ExprId v(std::string name) { return A().ident(std::move(name)); }
ExprId num(long long x) { return A().intLit(x); }
ExprId ident(std::string name) { return A().ident(std::move(name)); }
ExprId floatLit(double value, std::string spelling = "") {
  return A().floatLit(value, std::move(spelling));
}
ExprId stringLit(std::string value) { return A().stringLit(std::move(value)); }
ExprId charLit(char value) { return A().charLit(value); }
ExprId boolLit(bool value) { return A().boolLit(value); }
ExprId unary(UnaryOp op, ExprId operand) { return A().unary(op, operand); }
ExprId binary(BinaryOp op, ExprId lhs, ExprId rhs) {
  return A().binary(op, lhs, rhs);
}
ExprId assign(AssignOp op, ExprId target, ExprId value) {
  return A().assign(op, target, value);
}
ExprId call(std::string callee, std::vector<ExprId> args = {}) {
  return A().call(std::move(callee), std::move(args));
}
ExprId index(ExprId base, ExprId idx) { return A().index(base, idx); }
ExprId ternary(ExprId cond, ExprId thenExpr, ExprId elseExpr) {
  return A().ternary(cond, thenExpr, elseExpr);
}
ExprId cast(TypeRef type, ExprId operand) { return A().cast(type, operand); }
StmtId makeStmt(BlockStmt blockStmt) { return A().makeStmt(std::move(blockStmt)); }
StmtId varDecl(TypeRef type, std::vector<Declarator> decls) {
  return A().varDecl(type, std::move(decls));
}
StmtId varDecl1(TypeRef type, std::string name, ExprId init = {}) {
  return A().varDecl1(type, std::move(name), init);
}
StmtId exprStmt(ExprId expr) { return A().exprStmt(expr); }
StmtId ifStmt(ExprId cond, StmtId thenBranch, StmtId elseBranch = {}) {
  return A().ifStmt(cond, thenBranch, elseBranch);
}
StmtId forStmt(StmtId init, ExprId cond, ExprId step, StmtId body) {
  return A().forStmt(init, cond, step, body);
}
StmtId whileStmt(ExprId cond, StmtId body) { return A().whileStmt(cond, body); }
StmtId returnStmt(ExprId value = {}) { return A().returnStmt(value); }
StmtId readStmt(std::vector<ReadTarget> targets) {
  return A().readStmt(std::move(targets));
}
StmtId writeStmt(std::vector<WriteItem> items) {
  return A().writeStmt(std::move(items));
}
StmtId breakStmt() { return A().breakStmt(); }
StmtId continueStmt() { return A().continueStmt(); }
ReadTarget readTarget(std::string name, TypeRef type) {
  return A().readTarget(std::move(name), type);
}
WriteItem writeExpr(ExprId expr, TypeRef type, int precision = -1) {
  return A().writeExpr(expr, type, precision);
}

template <typename... S>
BlockStmt block(S&&... stmts) {
  BlockStmt b;
  (b.stmts.push_back(std::forward<S>(stmts)), ...);
  return b;
}

/// for (int var = from; var < to; var++) { body }
StmtId forCount(const std::string& var, ExprId to, BlockStmt body) {
  return forStmt(varDecl1(kInt, var, num(0)),
                 binary(BinaryOp::Lt, v(var), to),
                 unary(UnaryOp::PostInc, v(var)), makeStmt(std::move(body)));
}

/// for (int var = 1; var <= to; var++) { body }
StmtId forUpTo(const std::string& var, ExprId to, BlockStmt body) {
  return forStmt(varDecl1(kInt, var, num(1)),
                 binary(BinaryOp::Le, v(var), to),
                 unary(UnaryOp::PostInc, v(var)), makeStmt(std::move(body)));
}

StmtId readVars(std::vector<std::pair<std::string, TypeRef>> targets) {
  std::vector<ReadTarget> out;
  out.reserve(targets.size());
  for (auto& [name, type] : targets) out.push_back(readTarget(name, type));
  return readStmt(std::move(out));
}

/// cout << "Case #" << case_num << ": " << <result> << "\n";
StmtId writeCase(WriteItem result) {
  std::vector<WriteItem> items;
  items.push_back(writeText("Case #"));
  items.push_back(writeExpr(v("case_num"), kInt));
  items.push_back(writeText(": "));
  items.push_back(std::move(result));
  return writeStmt(std::move(items));
}

StmtId writeCaseText(std::string text) {
  std::vector<WriteItem> items;
  items.push_back(writeText("Case #"));
  items.push_back(writeExpr(v("case_num"), kInt));
  items.push_back(writeText(": " + text));
  return writeStmt(std::move(items));
}

TranslationUnit unitWithMain(BlockStmt mainBody) {
  TranslationUnit tu;
  tu.arena = std::exchange(gArena, Arena{});  // adopt the built nodes
  tu.usingNamespaceStd = true;
  Function mainFn;
  mainFn.returnType = kInt;
  mainFn.name = "main";
  mainFn.body = std::move(mainBody);
  tu.functions.push_back(std::move(mainFn));
  normalizeIncludes(tu, IoStyle::Iostream);
  return tu;
}

/// Standard shell: read the case count, loop, run the per-case body.
TranslationUnit caseLoopUnit(BlockStmt caseBody) {
  return unitWithMain(block(
      varDecl1(kInt, "num_cases"), readVars({{"num_cases", kInt}}),
      forUpTo("case_num", v("num_cases"), std::move(caseBody)),
      returnStmt(num(0))));
}

// ------------------------------------------------------------- problems --

/// Figure 3's problem: horses on a track; the last one to arrive bounds the
/// speed of a trailing rider.
Challenge makeRace() {
  BlockStmt inner = block(
      varDecl1(kInt, "pos"), varDecl1(kInt, "speed"),
      readVars({{"pos", kInt}, {"speed", kInt}}),
      varDecl1(kInt, "remaining",
               binary(BinaryOp::Sub, v("track_dist"), v("pos"))),
      varDecl1(kDouble, "arrive_time",
               binary(BinaryOp::Div, cast(kDouble, v("remaining")),
                      cast(kDouble, v("speed")))),
      exprStmt(assign(AssignOp::Assign, v("max_time"),
                      call("max", [] {
                        std::vector<ExprId> args;
                        args.push_back(v("max_time"));
                        args.push_back(v("arrive_time"));
                        return args;
                      }()))));
  BlockStmt body = block(
      varDecl1(kInt, "track_dist"), varDecl1(kInt, "num_horse"),
      readVars({{"track_dist", kInt}, {"num_horse", kInt}}),
      varDecl1(kDouble, "max_time", floatLit(0.0, "0")),
      forCount("j", v("num_horse"), std::move(inner)),
      varDecl1(kDouble, "result",
               binary(BinaryOp::Div, cast(kDouble, v("track_dist")),
                      v("max_time"))),
      writeCase(writeExpr(v("result"), kDouble, 6)));
  Challenge ch;
  ch.id = "race";
  ch.title = "Steed Speed";
  ch.statement =
      "A track of length D has N horses, each at position Ki with maximum "
      "speed Si. A new rider starts at 0 and may never overtake; print the "
      "maximum constant speed that never catches the slowest arrival.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Count maximal runs of '-' pancakes that must be flipped.
Challenge makePancakes() {
  BlockStmt flipRun = block(exprStmt(
      assign(AssignOp::AddAssign, v("flips"), num(1))));
  BlockStmt scan = block(ifStmt(
      binary(BinaryOp::LogicalAnd,
             binary(BinaryOp::Eq, index(v("cakes"), v("j")), charLit('-')),
             binary(BinaryOp::LogicalOr, binary(BinaryOp::Eq, v("j"), num(0)),
                    binary(BinaryOp::Ne,
                           index(v("cakes"),
                                 binary(BinaryOp::Sub, v("j"), num(1))),
                           charLit('-')))),
      makeStmt(std::move(flipRun))));
  BlockStmt body = block(
      varDecl1(kString, "cakes"), readVars({{"cakes", kString}}),
      varDecl1(kInt, "flips", num(0)),
      forCount("j", call("cakes.size"), std::move(scan)),
      writeCase(writeExpr(v("flips"), kInt)));
  Challenge ch;
  ch.id = "pancakes";
  ch.title = "Pancake Flipper";
  ch.statement =
      "A row of pancakes is a string of '+' (happy side up) and '-' "
      "(blank side up). One move flips a maximal run of '-'. Print the "
      "minimum number of moves until every pancake shows '+'.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Counting Sheep (GCJ 2017 qual): multiples of N until all digits seen.
Challenge makeSheep() {
  BlockStmt digitLoop = block(
      exprStmt(assign(AssignOp::Assign,
                      index(v("seen"),
                            binary(BinaryOp::Mod, v("value"), num(10))),
                      num(1))),
      exprStmt(assign(AssignOp::DivAssign, v("value"), num(10))));
  BlockStmt countLoop = block(ifStmt(
      binary(BinaryOp::Eq, index(v("seen"), v("d")), num(1)),
      makeStmt(block(
          exprStmt(assign(AssignOp::AddAssign, v("distinct"), num(1)))))));
  BlockStmt stepBody = block(
      exprStmt(assign(AssignOp::AddAssign, v("current"), v("start"))),
      varDecl1(kLL, "value", v("current")),
      whileStmt(binary(BinaryOp::Gt, v("value"), num(0)),
                makeStmt(std::move(digitLoop))),
      varDecl1(kInt, "distinct", num(0)),
      forCount("d", num(10), std::move(countLoop)),
      ifStmt(binary(BinaryOp::Eq, v("distinct"), num(10)),
             makeStmt(block(
                 writeCase(writeExpr(v("current"), kLL)),
                 breakStmt()))));
  std::vector<Declarator> seenDecl;
  seenDecl.push_back(Declarator{"seen", {}, num(10)});
  BlockStmt body = block(
      varDecl1(kLL, "start"), readVars({{"start", kLL}}),
      ifStmt(binary(BinaryOp::Eq, v("start"), num(0)),
             makeStmt(block(writeCaseText("INSOMNIA"), continueStmt()))),
      varDecl(kInt, std::move(seenDecl)),
      forCount("d", num(10),
               block(exprStmt(
                   assign(AssignOp::Assign, index(v("seen"), v("d")),
                          num(0))))),
      varDecl1(kLL, "current", num(0)),
      whileStmt(boolLit(true), makeStmt(std::move(stepBody))));
  Challenge ch;
  ch.id = "sheep";
  ch.title = "Counting Sheep";
  ch.statement =
      "Bleatrix counts N, 2N, 3N, ... and falls asleep once she has seen "
      "every digit 0-9. Print the last number she names, or INSOMNIA when "
      "N = 0.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Tidy Numbers (GCJ 2017 qual): last number <= N with non-decreasing digits.
Challenge makeTidy() {
  BlockStmt extract = block(
      exprStmt(call("digits.push_back",
                    [] {
                      std::vector<ExprId> args;
                      args.push_back(cast(
                          kInt, binary(BinaryOp::Mod, v("value"), num(10))));
                      return args;
                    }())),
      exprStmt(assign(AssignOp::DivAssign, v("value"), num(10))));
  BlockStmt fixup = block(ifStmt(
      binary(BinaryOp::Gt,
             index(v("digits"), binary(BinaryOp::Sub, v("j"), num(1))),
             index(v("digits"), v("j"))),
      makeStmt(block(
          exprStmt(assign(
              AssignOp::SubAssign,
              index(v("digits"), binary(BinaryOp::Sub, v("j"), num(1))),
              num(1))),
          forCount("p", call("digits.size"),
                   block(ifStmt(binary(BinaryOp::Ge, v("p"), v("j")),
                                makeStmt(block(exprStmt(assign(
                                    AssignOp::Assign,
                                    index(v("digits"), v("p")),
                                    num(9))))))))))));
  BlockStmt rebuild = block(exprStmt(assign(
      AssignOp::Assign, v("tidy"),
      binary(BinaryOp::Add, binary(BinaryOp::Mul, v("tidy"), num(10)),
             index(v("digits"), v("j"))))));
  BlockStmt body = block(
      varDecl1(kLL, "target"), readVars({{"target", kLL}}),
      varDecl1(kVecInt, "digits"), varDecl1(kLL, "value", v("target")),
      whileStmt(binary(BinaryOp::Gt, v("value"), num(0)),
                makeStmt(std::move(extract))),
      exprStmt(call("reverse",
                    [] {
                      std::vector<ExprId> args;
                      args.push_back(call("digits.begin"));
                      args.push_back(call("digits.end"));
                      return args;
                    }())),
      forUpTo("j", binary(BinaryOp::Sub, call("digits.size"), num(1)),
              std::move(fixup)),
      varDecl1(kLL, "tidy", num(0)),
      forCount("j", call("digits.size"), std::move(rebuild)),
      writeCase(writeExpr(v("tidy"), kLL)));
  Challenge ch;
  ch.id = "tidy";
  ch.title = "Tidy Numbers";
  ch.statement =
      "A number is tidy when its digits are non-decreasing. Given N, print "
      "the largest tidy number not exceeding N.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// The Last Word (GCJ 2016-style): build lexicographically largest word by
/// prepending or appending each letter.
Challenge makeLastWord() {
  BlockStmt choose = block(ifStmt(
      binary(BinaryOp::Ge, index(v("word"), v("j")),
             index(v("built"), num(0))),
      makeStmt(block(exprStmt(assign(
          AssignOp::Assign, v("built"),
          binary(BinaryOp::Add, index(v("word"), v("j")), v("built")))))),
      makeStmt(block(exprStmt(assign(
          AssignOp::Assign, v("built"),
          binary(BinaryOp::Add, v("built"), index(v("word"), v("j")))))))));
  BlockStmt body = block(
      varDecl1(kString, "word"), readVars({{"word", kString}}),
      varDecl1(kString, "built", stringLit("")),
      exprStmt(assign(AssignOp::AddAssign, v("built"),
                      index(v("word"), num(0)))),
      forStmt(varDecl1(kInt, "j", num(1)),
              binary(BinaryOp::Lt, v("j"), call("word.size")),
              unary(UnaryOp::PostInc, v("j")), makeStmt(std::move(choose))),
      writeCase(writeExpr(v("built"), kString)));
  Challenge ch;
  ch.id = "lastword";
  ch.title = "The Last Word";
  ch.statement =
      "Given a word, process its letters left to right, each time placing "
      "the letter at the front or the back of the word built so far; print "
      "the lexicographically largest result.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Greedy shopping: buy cheapest items first within a budget.
Challenge makeBudget() {
  BlockStmt readItem = block(
      varDecl1(kInt, "price"), readVars({{"price", kInt}}),
      exprStmt(call("prices.push_back", [] {
        std::vector<ExprId> args;
        args.push_back(v("price"));
        return args;
      }())));
  BlockStmt buy = block(ifStmt(
      binary(BinaryOp::Le, index(v("prices"), v("j")), v("budget")),
      makeStmt(block(
          exprStmt(assign(AssignOp::SubAssign, v("budget"),
                          index(v("prices"), v("j")))),
          exprStmt(assign(AssignOp::AddAssign, v("bought"), num(1))))),
      makeStmt(block(breakStmt()))));
  BlockStmt body = block(
      varDecl1(kInt, "num_items"), varDecl1(kInt, "budget"),
      readVars({{"num_items", kInt}, {"budget", kInt}}),
      varDecl1(kVecInt, "prices"),
      forCount("j", v("num_items"), std::move(readItem)),
      exprStmt(call("sort",
                    [] {
                      std::vector<ExprId> args;
                      args.push_back(call("prices.begin"));
                      args.push_back(call("prices.end"));
                      return args;
                    }())),
      varDecl1(kInt, "bought", num(0)),
      forCount("j", v("num_items"), std::move(buy)),
      writeCase(writeExpr(v("bought"), kInt)));
  Challenge ch;
  ch.id = "budget";
  ch.title = "Bargain Hunt";
  ch.statement =
      "With B units of money and N item prices, buy items greedily from "
      "cheapest to priciest; print how many items you can afford.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Majority vote simulation.
Challenge makeVotes() {
  BlockStmt tally = block(
      varDecl1(kChar, "ballot"), readVars({{"ballot", kChar}}),
      ifStmt(binary(BinaryOp::Eq, v("ballot"), charLit('A')),
             makeStmt(block(exprStmt(
                 assign(AssignOp::AddAssign, v("votes_a"), num(1))))),
             makeStmt(block(exprStmt(
                 assign(AssignOp::AddAssign, v("votes_b"), num(1)))))));
  BlockStmt body = block(
      varDecl1(kInt, "num_votes"), readVars({{"num_votes", kInt}}),
      varDecl1(kInt, "votes_a", num(0)), varDecl1(kInt, "votes_b", num(0)),
      forCount("j", v("num_votes"), std::move(tally)),
      ifStmt(binary(BinaryOp::Gt, v("votes_a"), v("votes_b")),
             makeStmt(block(writeCaseText("A"))),
             ifStmt(binary(BinaryOp::Gt, v("votes_b"), v("votes_a")),
                    makeStmt(block(writeCaseText("B"))),
                    makeStmt(block(writeCaseText("TIE"))))));
  Challenge ch;
  ch.id = "votes";
  ch.title = "Ballot Box";
  ch.statement =
      "N ballots each name candidate A or B. Print the winner, or TIE when "
      "the counts are equal.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Minimum digit sum: smallest k such that digit_sum(k) >= target.
Challenge makeDigitSum() {
  BlockStmt inner = block(
      exprStmt(assign(AssignOp::AddAssign, v("digit_total"),
                      binary(BinaryOp::Mod, v("rest"), num(10)))),
      exprStmt(assign(AssignOp::DivAssign, v("rest"), num(10))));
  BlockStmt probe = block(
      varDecl1(kInt, "digit_total", num(0)),
      varDecl1(kInt, "rest", v("k")),
      whileStmt(binary(BinaryOp::Gt, v("rest"), num(0)),
                makeStmt(std::move(inner))),
      ifStmt(binary(BinaryOp::Ge, v("digit_total"), v("target")),
             makeStmt(block(breakStmt()))),
      exprStmt(unary(UnaryOp::PostInc, v("k"))));
  BlockStmt body = block(
      varDecl1(kInt, "target"), readVars({{"target", kInt}}),
      varDecl1(kInt, "k", num(1)),
      whileStmt(boolLit(true), makeStmt(std::move(probe))),
      writeCase(writeExpr(v("k"), kInt)));
  Challenge ch;
  ch.id = "digitsum";
  ch.title = "Digit Debt";
  ch.statement =
      "Find the smallest positive integer whose digit sum is at least S and "
      "print it.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Average pace: total distance over total time across N legs.
Challenge makePace() {
  BlockStmt leg = block(
      varDecl1(kInt, "leg_dist"), varDecl1(kDouble, "leg_speed"),
      readVars({{"leg_dist", kInt}, {"leg_speed", kDouble}}),
      exprStmt(assign(AssignOp::AddAssign, v("total_dist"), v("leg_dist"))),
      exprStmt(assign(AssignOp::AddAssign, v("total_time"),
                      binary(BinaryOp::Div, cast(kDouble, v("leg_dist")),
                             v("leg_speed")))));
  BlockStmt body = block(
      varDecl1(kInt, "num_legs"), readVars({{"num_legs", kInt}}),
      varDecl1(kInt, "total_dist", num(0)),
      varDecl1(kDouble, "total_time", floatLit(0.0, "0.0")),
      forCount("j", v("num_legs"), std::move(leg)),
      varDecl1(kDouble, "avg_speed",
               binary(BinaryOp::Div, cast(kDouble, v("total_dist")),
                      v("total_time"))),
      writeCase(writeExpr(v("avg_speed"), kDouble, 6)));
  Challenge ch;
  ch.id = "pace";
  ch.title = "Trail Pace";
  ch.statement =
      "A trail has N legs, each with a distance and a speed. Print the "
      "average speed over the whole trail (total distance / total time).";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Min path sum over a grid using a rolling 1-D dp vector.
Challenge makeGrid() {
  BlockStmt readRow = block(
      varDecl1(kInt, "cell"), readVars({{"cell", kInt}}),
      ifStmt(
          binary(BinaryOp::Eq, v("r"), num(0)),
          makeStmt(block(ifStmt(
              binary(BinaryOp::Eq, v("c"), num(0)),
              makeStmt(block(exprStmt(
                  assign(AssignOp::Assign, index(v("dp"), v("c")),
                         v("cell"))))),
              makeStmt(block(exprStmt(assign(
                  AssignOp::Assign, index(v("dp"), v("c")),
                  binary(BinaryOp::Add,
                         index(v("dp"),
                               binary(BinaryOp::Sub, v("c"), num(1))),
                         v("cell"))))))))),
          makeStmt(block(ifStmt(
              binary(BinaryOp::Eq, v("c"), num(0)),
              makeStmt(block(exprStmt(assign(
                  AssignOp::Assign, index(v("dp"), v("c")),
                  binary(BinaryOp::Add, index(v("dp"), v("c")),
                         v("cell")))))),
              makeStmt(block(exprStmt(assign(
                  AssignOp::Assign, index(v("dp"), v("c")),
                  binary(BinaryOp::Add,
                         call("min",
                              [] {
                                std::vector<ExprId> args;
                                args.push_back(ident("dp_left"));
                                args.push_back(ident("dp_up"));
                                return args;
                              }()),
                         v("cell")))))))))));
  // dp_left / dp_up temporaries keep the min() call simple.
  BlockStmt colLoop = block(
      varDecl1(kInt, "dp_left",
               ternary(binary(BinaryOp::Gt, v("c"), num(0)),
                       index(v("dp"), binary(BinaryOp::Sub, v("c"), num(1))),
                       num(1000000000))),
      varDecl1(kInt, "dp_up", index(v("dp"), v("c"))),
      std::move(readRow.stmts[0]), std::move(readRow.stmts[1]),
      std::move(readRow.stmts[2]));
  BlockStmt rowLoop = block(forCount("c", v("size"), std::move(colLoop)));
  std::vector<Declarator> dpDecl;
  dpDecl.push_back(Declarator{"dp", v("size"), {}});
  BlockStmt body = block(
      varDecl1(kInt, "size"), readVars({{"size", kInt}}),
      varDecl(kVecInt, std::move(dpDecl)),
      forCount("r", v("size"), std::move(rowLoop)),
      writeCase(writeExpr(
          index(v("dp"), binary(BinaryOp::Sub, v("size"), num(1))), kInt)));
  Challenge ch;
  ch.id = "grid";
  ch.title = "Valley Crossing";
  ch.statement =
      "An N x N grid of costs must be crossed from the top-left to the "
      "bottom-right moving only right or down; print the minimum total "
      "cost.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Parity split: count even and odd values, print the difference.
Challenge makeParity() {
  BlockStmt tally = block(
      varDecl1(kInt, "value"), readVars({{"value", kInt}}),
      ifStmt(binary(BinaryOp::Eq,
                    binary(BinaryOp::Mod, v("value"), num(2)), num(0)),
             makeStmt(block(exprStmt(
                 assign(AssignOp::AddAssign, v("evens"), num(1))))),
             makeStmt(block(exprStmt(
                 assign(AssignOp::AddAssign, v("odds"), num(1)))))));
  BlockStmt body = block(
      varDecl1(kInt, "num_values"), readVars({{"num_values", kInt}}),
      varDecl1(kInt, "evens", num(0)), varDecl1(kInt, "odds", num(0)),
      forCount("j", v("num_values"), std::move(tally)),
      varDecl1(kInt, "gap",
               call("abs",
                    [] {
                      std::vector<ExprId> args;
                      args.push_back(
                          binary(BinaryOp::Sub, ident("evens"), ident("odds")));
                      return args;
                    }())),
      writeCase(writeExpr(v("gap"), kInt)));
  Challenge ch;
  ch.id = "parity";
  ch.title = "Even Ground";
  ch.statement =
      "Given N integers, print the absolute difference between how many "
      "are even and how many are odd.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Staircase stepping: greedy largest-step count (sqrt-style loop).
Challenge makeSteps() {
  BlockStmt climb = block(
      ifStmt(binary(BinaryOp::Gt, v("step"), v("left")),
             makeStmt(block(breakStmt()))),
      exprStmt(assign(AssignOp::SubAssign, v("left"), v("step"))),
      exprStmt(unary(UnaryOp::PostInc, v("step"))),
      exprStmt(unary(UnaryOp::PostInc, v("taken"))));
  BlockStmt body = block(
      varDecl1(kLL, "height"), readVars({{"height", kLL}}),
      varDecl1(kLL, "left", v("height")),
      varDecl1(kLL, "step", num(1)), varDecl1(kInt, "taken", num(0)),
      whileStmt(binary(BinaryOp::Gt, v("left"), num(0)),
                makeStmt(std::move(climb))),
      writeCase(writeExpr(v("taken"), kInt)));
  Challenge ch;
  ch.id = "steps";
  ch.title = "Giant Stairs";
  ch.statement =
      "Starting with step size 1 and increasing by 1 each move, climb a "
      "staircase of height H; print how many full steps fit.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Euclid's gcd of two numbers.
Challenge makeGcd() {
  BlockStmt euclid = block(
      varDecl1(kLL, "rest", binary(BinaryOp::Mod, v("first"), v("second"))),
      exprStmt(assign(AssignOp::Assign, v("first"), v("second"))),
      exprStmt(assign(AssignOp::Assign, v("second"), v("rest"))));
  BlockStmt body = block(
      varDecl1(kLL, "first"), varDecl1(kLL, "second"),
      readVars({{"first", kLL}, {"second", kLL}}),
      whileStmt(binary(BinaryOp::Gt, v("second"), num(0)),
                makeStmt(std::move(euclid))),
      writeCase(writeExpr(v("first"), kLL)));
  Challenge ch;
  ch.id = "gcd";
  ch.title = "Fence Posts";
  ch.statement =
      "Two fences of lengths A and B must be cut into equal pieces of the "
      "largest possible integer length; print that length (the greatest "
      "common divisor).";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Kadane's maximum-subarray sum.
Challenge makeKadane() {
  BlockStmt scan = block(
      varDecl1(kInt, "value"), readVars({{"value", kInt}}),
      exprStmt(assign(AssignOp::Assign, v("running"),
                      call("max",
                           [] {
                             std::vector<ExprId> args;
                             args.push_back(ident("value"));
                             args.push_back(binary(BinaryOp::Add,
                                                   ident("running"),
                                                   ident("value")));
                             return args;
                           }()))),
      exprStmt(assign(AssignOp::Assign, v("best"),
                      call("max", [] {
                        std::vector<ExprId> args;
                        args.push_back(ident("best"));
                        args.push_back(ident("running"));
                        return args;
                      }()))));
  BlockStmt body = block(
      varDecl1(kInt, "num_values"), readVars({{"num_values", kInt}}),
      varDecl1(kInt, "running", num(-1000000000)),
      varDecl1(kInt, "best", num(-1000000000)),
      forCount("j", v("num_values"), std::move(scan)),
      writeCase(writeExpr(v("best"), kInt)));
  Challenge ch;
  ch.id = "kadane";
  ch.title = "Best Streak";
  ch.statement =
      "Given N daily profits (possibly negative), print the maximum total "
      "profit of any contiguous run of days.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Count palindromic strings among N words.
Challenge makePalindrome() {
  BlockStmt compare = block(ifStmt(
      binary(BinaryOp::Ne, index(v("word"), v("p")),
             index(v("word"),
                   binary(BinaryOp::Sub,
                          binary(BinaryOp::Sub, call("word.size"), num(1)),
                          v("p")))),
      makeStmt(block(
          exprStmt(assign(AssignOp::Assign, v("is_pal"), boolLit(false))),
          breakStmt()))));
  BlockStmt perWord = block(
      varDecl1(kString, "word"), readVars({{"word", kString}}),
      varDecl1(kBool, "is_pal", boolLit(true)),
      forStmt(varDecl1(kInt, "p", num(0)),
              binary(BinaryOp::Lt,
                     binary(BinaryOp::Mul, v("p"), num(2)),
                     cast(kInt, call("word.size"))),
              unary(UnaryOp::PostInc, v("p")), makeStmt(std::move(compare))),
      ifStmt(v("is_pal"),
             makeStmt(block(exprStmt(
                 assign(AssignOp::AddAssign, v("pal_count"), num(1)))))));
  BlockStmt body = block(
      varDecl1(kInt, "num_words"), readVars({{"num_words", kInt}}),
      varDecl1(kInt, "pal_count", num(0)),
      forCount("j", v("num_words"), std::move(perWord)),
      writeCase(writeExpr(v("pal_count"), kInt)));
  Challenge ch;
  ch.id = "palindrome";
  ch.title = "Mirror Words";
  ch.statement =
      "Given N words, print how many of them read the same forwards and "
      "backwards.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Binary search on the answer: largest k with k*(k+1)/2 <= N.
Challenge makeBinSearch() {
  BlockStmt step = block(
      // Ceil-division mid: lower-bound loops with "lo = mid" need
      // (lo + hi + 1) / 2 to terminate.
      varDecl1(kLL, "mid",
               binary(BinaryOp::Div,
                      binary(BinaryOp::Add,
                             binary(BinaryOp::Add, v("lo"), v("hi")),
                             num(1)),
                      num(2))),
      varDecl1(kLL, "used",
               binary(BinaryOp::Div,
                      binary(BinaryOp::Mul, v("mid"),
                             binary(BinaryOp::Add, v("mid"), num(1))),
                      num(2))),
      ifStmt(binary(BinaryOp::Le, v("used"), v("coins")),
             makeStmt(block(
                 exprStmt(assign(AssignOp::Assign, v("lo"), v("mid"))))),
             makeStmt(block(exprStmt(assign(
                 AssignOp::Assign, v("hi"),
                 binary(BinaryOp::Sub, v("mid"), num(1))))))));
  BlockStmt body = block(
      varDecl1(kLL, "coins"), readVars({{"coins", kLL}}),
      varDecl1(kLL, "lo", num(0)), varDecl1(kLL, "hi", num(2000000000)),
      whileStmt(binary(BinaryOp::Lt, v("lo"), v("hi")),
                makeStmt(std::move(step))),
      writeCase(writeExpr(v("lo"), kLL)));
  Challenge ch;
  ch.id = "binsearch";
  ch.title = "Coin Pyramid";
  ch.statement =
      "A pyramid with k rows needs 1+2+...+k coins. Given N coins, print "
      "the tallest pyramid you can build.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Count overlapping interval merges (sort by start, sweep).
Challenge makeIntervals() {
  BlockStmt readPair = block(
      varDecl1(kInt, "start"), varDecl1(kInt, "finish"),
      readVars({{"start", kInt}, {"finish", kInt}}),
      exprStmt(call("starts.push_back",
                    [] {
                      std::vector<ExprId> args;
                      args.push_back(ident("start"));
                      return args;
                    }())),
      exprStmt(call("ends.push_back", [] {
        std::vector<ExprId> args;
        args.push_back(ident("finish"));
        return args;
      }())));
  BlockStmt sweep = block(ifStmt(
      binary(BinaryOp::Gt, index(v("starts"), v("j")), v("covered")),
      makeStmt(block(
          exprStmt(assign(AssignOp::AddAssign, v("blocks"), num(1))),
          exprStmt(assign(AssignOp::Assign, v("covered"),
                          index(v("ends"), v("j")))))),
      makeStmt(block(exprStmt(assign(
          AssignOp::Assign, v("covered"),
          call("max", [] {
            std::vector<ExprId> args;
            args.push_back(ident("covered"));
            args.push_back(index(ident("ends"), ident("j")));
            return args;
          }())))))));
  BlockStmt body = block(
      varDecl1(kInt, "num_intervals"), readVars({{"num_intervals", kInt}}),
      varDecl1(kVecInt, "starts"), varDecl1(kVecInt, "ends"),
      forCount("j", v("num_intervals"), std::move(readPair)),
      varDecl1(kInt, "blocks", num(0)),
      varDecl1(kInt, "covered", num(-1000000000)),
      forCount("j", v("num_intervals"), std::move(sweep)),
      writeCase(writeExpr(v("blocks"), kInt)));
  Challenge ch;
  ch.id = "intervals";
  ch.title = "Painted Fence";
  ch.statement =
      "N painters each covered one interval of a fence, given in "
      "left-to-right order of their starting points. Print how many "
      "disjoint painted blocks the fence has.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Count pairs summing to a target (two nested loops).
Challenge makeTwoSum() {
  BlockStmt inner = block(ifStmt(
      binary(BinaryOp::Eq,
             binary(BinaryOp::Add, index(v("values"), v("j")),
                    index(v("values"), v("k"))),
             v("target")),
      makeStmt(block(exprStmt(
          assign(AssignOp::AddAssign, v("pairs"), num(1)))))));
  BlockStmt outer = block(forStmt(
      varDecl1(kInt, "k", binary(BinaryOp::Add, v("j"), num(1))),
      binary(BinaryOp::Lt, v("k"), v("num_values")),
      unary(UnaryOp::PostInc, v("k")), makeStmt(std::move(inner))));
  BlockStmt readOne = block(
      varDecl1(kInt, "value"), readVars({{"value", kInt}}),
      exprStmt(call("values.push_back", [] {
        std::vector<ExprId> args;
        args.push_back(ident("value"));
        return args;
      }())));
  BlockStmt body = block(
      varDecl1(kInt, "num_values"), varDecl1(kInt, "target"),
      readVars({{"num_values", kInt}, {"target", kInt}}),
      varDecl1(kVecInt, "values"),
      forCount("j", v("num_values"), std::move(readOne)),
      varDecl1(kInt, "pairs", num(0)),
      forCount("j", v("num_values"), std::move(outer)),
      writeCase(writeExpr(v("pairs"), kInt)));
  Challenge ch;
  ch.id = "twosum";
  ch.title = "Gift Pairs";
  ch.statement =
      "Given N gift prices and a budget B, print the number of unordered "
      "pairs of gifts whose prices sum to exactly B.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Caesar cipher shift of a word.
Challenge makeCaesar() {
  BlockStmt shiftOne = block(
      varDecl1(kInt, "code",
               binary(BinaryOp::Sub, cast(kInt, index(v("word"), v("p"))),
                      cast(kInt, charLit('a')))),
      exprStmt(assign(AssignOp::Assign, v("code"),
                      binary(BinaryOp::Mod,
                             binary(BinaryOp::Add, v("code"), v("shift")),
                             num(26)))),
      exprStmt(assign(
          AssignOp::Assign, index(v("word"), v("p")),
          cast(kChar, binary(BinaryOp::Add, v("code"),
                             cast(kInt, charLit('a')))))));
  BlockStmt body = block(
      varDecl1(kString, "word"), varDecl1(kInt, "shift"),
      readVars({{"word", kString}, {"shift", kInt}}),
      forCount("p", cast(kInt, call("word.size")), std::move(shiftOne)),
      writeCase(writeExpr(v("word"), kString)));
  Challenge ch;
  ch.id = "caesar";
  ch.title = "Rotated Scrolls";
  ch.statement =
      "Encrypt a lowercase word with a Caesar shift of K positions and "
      "print the result.";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

/// Modular exponentiation by squaring.
Challenge makePowMod() {
  BlockStmt square = block(
      ifStmt(binary(BinaryOp::Eq,
                    binary(BinaryOp::Mod, v("exponent"), num(2)), num(1)),
             makeStmt(block(exprStmt(assign(
                 AssignOp::Assign, v("result"),
                 binary(BinaryOp::Mod,
                        binary(BinaryOp::Mul, v("result"), v("base")),
                        v("modulus"))))))),
      exprStmt(assign(AssignOp::Assign, v("base"),
                      binary(BinaryOp::Mod,
                             binary(BinaryOp::Mul, v("base"), v("base")),
                             v("modulus")))),
      exprStmt(assign(AssignOp::DivAssign, v("exponent"), num(2))));
  BlockStmt body = block(
      varDecl1(kLL, "base"), varDecl1(kLL, "exponent"),
      varDecl1(kLL, "modulus"),
      readVars({{"base", kLL}, {"exponent", kLL}, {"modulus", kLL}}),
      varDecl1(kLL, "result", num(1)),
      exprStmt(assign(AssignOp::ModAssign, v("base"), v("modulus"))),
      whileStmt(binary(BinaryOp::Gt, v("exponent"), num(0)),
                makeStmt(std::move(square))),
      writeCase(writeExpr(v("result"), kLL)));
  Challenge ch;
  ch.id = "powmod";
  ch.title = "Tower Clock";
  ch.statement =
      "Print B raised to the power E, modulo M (fast exponentiation by "
      "squaring).";
  ch.ir = caseLoopUnit(std::move(body));
  return ch;
}

const std::vector<Challenge>& builtCatalogue() {
  static const std::vector<Challenge> kCatalogue = [] {
    std::vector<Challenge> all;
    // The "classic twelve" — the pool the simulated GCJ years draw from.
    // Their order is load-bearing: every calibrated table regenerates from
    // these; new problems must be appended AFTER them.
    all.push_back(makeRace());
    all.push_back(makePancakes());
    all.push_back(makeSheep());
    all.push_back(makeTidy());
    all.push_back(makeLastWord());
    all.push_back(makeBudget());
    all.push_back(makeVotes());
    all.push_back(makeDigitSum());
    all.push_back(makePace());
    all.push_back(makeGrid());
    all.push_back(makeParity());
    all.push_back(makeSteps());
    // Extension problems (examples, tests, extra workloads).
    all.push_back(makeGcd());
    all.push_back(makeKadane());
    all.push_back(makePalindrome());
    all.push_back(makeBinSearch());
    all.push_back(makeIntervals());
    all.push_back(makeTwoSum());
    all.push_back(makeCaesar());
    all.push_back(makePowMod());
    return all;
  }();
  return kCatalogue;
}

}  // namespace

const std::vector<Challenge>& catalogue() { return builtCatalogue(); }

std::vector<const Challenge*> challengesForYear(int year) {
  const auto& all = builtCatalogue();
  // 8 of the classic twelve, rotated by year so that years overlap but are
  // not identical (as with real GCJ rounds, some problem archetypes
  // recur). Pinned to the first 12 catalogue entries so that extending the
  // catalogue never shifts the calibrated experiments.
  constexpr std::size_t kYearPool = 12;
  const std::size_t offset =
      static_cast<std::size_t>((year - 2017 + 120) % static_cast<int>(kYearPool));
  std::vector<const Challenge*> out;
  out.reserve(8);
  for (std::size_t i = 0; i < 8; ++i) {
    out.push_back(&all[(offset * 2 + i) % kYearPool]);
  }
  return out;
}

const Challenge& challengeById(const std::string& id) {
  for (const Challenge& ch : builtCatalogue()) {
    if (ch.id == id) return ch;
  }
  throw std::out_of_range("unknown challenge id: " + id);
}

const Challenge& figure3Challenge() { return challengeById("race"); }

}  // namespace sca::corpus
