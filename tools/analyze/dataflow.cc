#include "analyze/dataflow.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "analyze/analysis.h"

namespace gl::analyze {

// --- symbol index ----------------------------------------------------------

SymbolIndex::SymbolIndex(const std::vector<FileFacts>& files)
    : files_(&files) {
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const FileFacts& f = files[static_cast<std::size_t>(fi)];
    for (int gi = 0; gi < static_cast<int>(f.functions.size()); ++gi) {
      const FunctionDef& d = f.functions[static_cast<std::size_t>(gi)];
      by_name_[d.name].push_back({fi, gi});
      by_file_name_[std::to_string(fi) + "/" + d.name].push_back({fi, gi});
      if (!d.class_name.empty()) {
        by_class_[d.class_name].push_back({fi, gi});
        by_class_method_[d.class_name + "::" + d.name].push_back({fi, gi});
      }
    }
  }
}

const FunctionDef& SymbolIndex::Def(const FuncRef& r) const {
  return (*files_)[static_cast<std::size_t>(r.file)]
      .functions[static_cast<std::size_t>(r.func)];
}

std::string SymbolIndex::Display(const FuncRef& r) const {
  const FunctionDef& d = Def(r);
  return d.class_name.empty() ? d.name : d.class_name + "::" + d.name;
}

const std::vector<FuncRef>* SymbolIndex::ByName(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it != by_name_.end() ? &it->second : nullptr;
}

const std::vector<FuncRef>* SymbolIndex::ByClass(const std::string& cls) const {
  const auto it = by_class_.find(cls);
  return it != by_class_.end() ? &it->second : nullptr;
}

const std::vector<FuncRef>* SymbolIndex::Resolve(
    const FuncRef& caller, const std::string& callee) const {
  const FunctionDef& d = Def(caller);
  if (!d.class_name.empty()) {
    const auto it = by_class_method_.find(d.class_name + "::" + callee);
    if (it != by_class_method_.end()) return &it->second;
  }
  const auto fit =
      by_file_name_.find(std::to_string(caller.file) + "/" + callee);
  if (fit != by_file_name_.end()) return &fit->second;
  const auto it = by_name_.find(callee);
  return it != by_name_.end() ? &it->second : nullptr;
}

// --- dimension lattice -----------------------------------------------------

Dim DimFromString(const std::string& s) {
  if (s == "cores") return Dim::kCores;
  if (s == "bytes") return Dim::kBytes;
  if (s == "bits_per_sec") return Dim::kBitsPerSec;
  if (s == "watts") return Dim::kWatts;
  if (s == "ms") return Dim::kMs;
  if (s == "epochs") return Dim::kEpochs;
  if (s == "count") return Dim::kCount;
  if (s == "dimensionless") return Dim::kDimensionless;
  return Dim::kUnknown;
}

const char* DimName(Dim d) {
  switch (d) {
    case Dim::kUnknown: return "unknown";
    case Dim::kCores: return "cores";
    case Dim::kBytes: return "bytes";
    case Dim::kBitsPerSec: return "bits_per_sec";
    case Dim::kWatts: return "watts";
    case Dim::kMs: return "ms";
    case Dim::kEpochs: return "epochs";
    case Dim::kCount: return "count";
    case Dim::kDimensionless: return "dimensionless";
    case Dim::kConflict: return "conflict";
  }
  return "unknown";
}

namespace {

constexpr char kRuleUnits[] = "GL014";
constexpr char kRuleTaint[] = "GL016";

// Callees whose return value keeps its argument's dimension and taint.
const std::unordered_set<std::string_view> kPassthroughCallees = {
    "max", "min", "clamp", "abs", "fabs", "floor", "ceil", "round",
    "move", "nextafter"};

// Callees whose return value is nondeterministic across runs.
const std::unordered_set<std::string_view> kTaintSourceCallees = {
    "rand", "random", "drand48", "lrand48", "mrand48", "random_device",
    "now", "time", "clock", "gettimeofday", "clock_gettime", "getpid",
    "MonotonicMicros", "ElapsedMs", "ElapsedUs"};

// Callees that feed the determinism contract (DESIGN.md §8): state-hash
// mixers and deterministic decision counters.
const std::unordered_set<std::string_view> kTaintSinkCallees = {
    "MixU64", "MixI64", "MixI32", "MixDouble", "MixResource", "MixId",
    "HashAssignment", "HashLoads", "Counter::Add"};

// Callees that return an element/item count regardless of receiver.
[[nodiscard]] bool IsCountCallee(const std::string& name) {
  static const std::unordered_set<std::string_view> kNames = {
      "size", "length", "capacity", "count", "use_count", "distance"};
  return kNames.count(name) > 0 || name.starts_with("num_");
}

struct Val {
  Dim dim = Dim::kUnknown;
  bool tainted = false;
  std::string origin;  // first (lexicographically) taint origin label
};

// Lattice join; returns true when *into changed.
bool Join(Val* into, const Val& from) {
  bool changed = false;
  if (from.dim != Dim::kUnknown && from.dim != into->dim) {
    if (into->dim == Dim::kUnknown) {
      into->dim = from.dim;
      changed = true;
    } else if (into->dim != Dim::kConflict) {
      into->dim = Dim::kConflict;
      changed = true;
    }
  }
  if (from.tainted && !into->tainted) {
    into->tainted = true;
    changed = true;
  }
  if (from.tainted && !from.origin.empty() &&
      (into->origin.empty() || from.origin < into->origin)) {
    into->origin = from.origin;
    changed = true;
  }
  return changed;
}

[[nodiscard]] bool IsTracked(const std::string& term) {
  return term.size() >= 2 && (term[0] == 'v' || term[0] == 'm' ||
                              term[0] == 'c') && term[1] == ':';
}

[[nodiscard]] std::string TermName(const std::string& term) {
  return term.size() > 2 ? term.substr(2) : term;
}

// Call terms are "c:callee@line"; the bare callee name, for display and for
// matching against the passthrough/source/count name sets.
[[nodiscard]] std::string CalleeOf(const std::string& term) {
  std::string name = TermName(term);
  const std::size_t at = name.rfind('@');
  return at == std::string::npos ? name : name.substr(0, at);
}

struct Engine {
  const std::vector<FileFacts>& files;
  const SymbolIndex& index;

  // Declared member dims: "Class::field" -> dim, plus field -> classes.
  std::map<std::string, Dim> member_dims;
  std::map<std::string, std::vector<std::string>> member_classes;

  // Known local/param names per function, from ParamDecl and UnitDecl facts.
  // Bare identifiers in a method body that are NOT known locals resolve to
  // the enclosing class's member node when that field has a declared dim
  // (members are usually accessed without this->, so they lex as "v:" terms).
  std::map<std::pair<int, int>, std::set<std::string>> local_names;

  std::map<std::string, Val> vals;          // node key -> lattice value
  std::set<std::string> declared;           // nodes with a declared dim
  // GL_UNITS(any): deliberately dimension-erased nodes (polymorphic helpers
  // like WithinCap or an EWMA over arbitrary series). Incoming dimensions
  // are dropped instead of joined — the node never conflicts and never
  // resolves — while taint still flows through it.
  std::set<std::string> poly;
  std::set<std::pair<std::string, std::string>> edges;  // src -> dst

  [[nodiscard]] static std::string LocalKey(int file, int func,
                                            const std::string& name) {
    return "L|" + std::to_string(file) + "|" + std::to_string(func) + "|" +
           name;
  }
  [[nodiscard]] static std::string RetKey(const FuncRef& r) {
    return "R|" + std::to_string(r.file) + "|" + std::to_string(r.func);
  }
  [[nodiscard]] static std::string CallKey(int file, int func,
                                           const std::string& callee) {
    return "C|" + std::to_string(file) + "|" + std::to_string(func) + "|" +
           callee;
  }

  // Maps a term in (file, func) context to its node key; "" = untracked.
  [[nodiscard]] std::string NodeOf(int file, int func,
                                   const std::string& term) const {
    if (!IsTracked(term)) return "";
    const std::string name = TermName(term);
    const FunctionDef& d =
        files[static_cast<std::size_t>(file)]
            .functions[static_cast<std::size_t>(func)];
    if (term[0] == 'v') {
      const auto ln = local_names.find({file, func});
      const bool is_local = ln != local_names.end() && ln->second.count(name);
      if (!is_local && !d.class_name.empty() &&
          member_dims.count(d.class_name + "::" + name)) {
        return "M|" + d.class_name + "::" + name;
      }
      return LocalKey(file, func, name);
    }
    if (term[0] == 'c') return CallKey(file, func, name);
    // Member access: prefer the enclosing class's declared field, then a
    // uniquely declared field of that name, then the global field node.
    if (!d.class_name.empty() &&
        member_dims.count(d.class_name + "::" + name)) {
      return "M|" + d.class_name + "::" + name;
    }
    const auto it = member_classes.find(name);
    if (it != member_classes.end() && it->second.size() == 1) {
      return "M|" + it->second[0] + "::" + name;
    }
    return "M|" + name;
  }

  void SeedDim(const std::string& node, Dim dim) {
    if (node.empty() || dim == Dim::kUnknown) return;
    Join(&vals[node], Val{dim, false, ""});
    declared.insert(node);
  }

  void Build() {
    // Local-name sets first: NodeOf consults them to tell apart locals and
    // bare (this-less) member accesses.
    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      for (const ParamDecl& p : f.params) {
        local_names[{fi, p.func}].insert(p.name);
      }
      for (const UnitDecl& u : f.unit_decls) {
        if (u.func >= 0) local_names[{fi, u.func}].insert(u.var);
      }
    }
    // Member declarations next: term resolution consults them.
    for (const FileFacts& f : files) {
      for (const UnitDecl& u : f.unit_decls) {
        if (u.func >= 0) continue;
        const std::size_t sep = u.var.find("::");
        if (sep == std::string::npos) continue;
        member_dims[u.var] = DimFromString(u.dim);
        if (u.dim == "any") poly.insert("M|" + u.var);
        member_classes[u.var.substr(sep + 2)].push_back(u.var.substr(0, sep));
      }
    }
    for (auto& [field, classes] : member_classes) {
      std::sort(classes.begin(), classes.end());
      classes.erase(std::unique(classes.begin(), classes.end()),
                    classes.end());
    }
    for (const auto& [qual, dim] : member_dims) SeedDim("M|" + qual, dim);
    // A field declared by several classes still seeds the global node when
    // every declaration agrees (m: terms outside any class fall back to it).
    for (const auto& [field, classes] : member_classes) {
      Dim agreed = Dim::kUnknown;
      bool ok = true;
      for (const std::string& cls : classes) {
        const Dim d = member_dims.at(cls + "::" + field);
        if (agreed != Dim::kUnknown && d != agreed) ok = false;
        agreed = d;
      }
      if (ok && agreed != Dim::kUnknown) SeedDim("M|" + field, agreed);
    }
    // Resource field names carry their dimension wherever they appear.
    SeedDim("M|cpu", Dim::kCores);
    SeedDim("M|mem_gb", Dim::kBytes);
    SeedDim("M|net_mbps", Dim::kBitsPerSec);

    // Count-returning callees (size(), num_*(), ...) type their call terms.
    const auto seed_count_call = [this](int fi, int func,
                                        const std::string& term) {
      if (term.size() > 2 && term[0] == 'c' &&
          IsCountCallee(CalleeOf(term))) {
        SeedDim(CallKey(fi, func, term.substr(2)), Dim::kCount);
      }
    };
    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      for (const UnitBinop& b : f.binops) {
        seed_count_call(fi, b.func, b.lhs);
        seed_count_call(fi, b.func, b.rhs);
      }
      for (const UnitAssign& a : f.assigns) {
        seed_count_call(fi, a.func, a.lhs);
        seed_count_call(fi, a.func, a.rhs);
      }
      for (const CallArg& g : f.call_args) seed_count_call(fi, g.func, g.term);
      for (const ReturnFlow& r : f.returns) seed_count_call(fi, r.func, r.term);
    }

    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      for (const UnitDecl& u : f.unit_decls) {
        if (u.func < 0) continue;
        if (u.dim == "any") poly.insert(LocalKey(fi, u.func, u.var));
        else SeedDim(LocalKey(fi, u.func, u.var), DimFromString(u.dim));
      }
      for (const ParamDecl& p : f.params) {
        if (p.units.empty()) continue;
        if (p.units == "any") poly.insert(LocalKey(fi, p.func, p.name));
        else SeedDim(LocalKey(fi, p.func, p.name), DimFromString(p.units));
      }
      for (int gi = 0; gi < static_cast<int>(f.functions.size()); ++gi) {
        const FunctionDef& d = f.functions[static_cast<std::size_t>(gi)];
        if (d.ret_units.empty()) continue;
        if (d.ret_units == "any") poly.insert(RetKey({fi, gi}));
        else SeedDim(RetKey({fi, gi}), DimFromString(d.ret_units));
      }
      for (const TaintSeed& sd : f.taint_seeds) {
        const std::string node = NodeOf(fi, sd.func, sd.term);
        if (node.empty()) continue;
        Join(&vals[node],
             Val{Dim::kUnknown, true,
                 sd.kind + " at " + f.path + ":" + std::to_string(sd.line)});
      }

      // Flow edges.
      for (const UnitAssign& a : f.assigns) {
        AddEdge(NodeOf(fi, a.func, a.rhs), NodeOf(fi, a.func, a.lhs));
      }
      for (const ReturnFlow& r : f.returns) {
        AddEdge(NodeOf(fi, r.func, r.term), RetKey({fi, r.func}));
      }
      for (const CallArg& g : f.call_args) {
        const std::string src = NodeOf(fi, g.func, g.term);
        if (src.empty()) continue;
        if (kPassthroughCallees.count(g.callee)) {
          AddEdge(src, CallKey(fi, g.func,
                               g.callee + "@" + std::to_string(g.line)));
          continue;
        }
        const std::vector<FuncRef>* targets =
            index.Resolve({fi, g.func}, g.callee);
        if (targets == nullptr) continue;
        for (const FuncRef& tgt : *targets) {
          const FileFacts& tf = files[static_cast<std::size_t>(tgt.file)];
          for (const ParamDecl& p : tf.params) {
            if (p.func == tgt.func && p.index == g.index) {
              AddEdge(src, LocalKey(tgt.file, tgt.func, p.name));
            }
          }
        }
      }
      for (const CallSite& c : f.calls) {
        if (c.func < 0) continue;
        const std::string key = CallKey(
            fi, c.func, c.callee + "@" + std::to_string(c.line));
        if (kTaintSourceCallees.count(c.callee)) {
          Join(&vals[key],
               Val{Dim::kUnknown, true,
                   c.callee + "() at " + f.path + ":" +
                       std::to_string(c.line)});
          continue;
        }
        const std::vector<FuncRef>* targets =
            index.Resolve({fi, c.func}, c.callee);
        if (targets == nullptr) continue;
        for (const FuncRef& tgt : *targets) {
          AddEdge(RetKey(tgt), key);
        }
      }
    }
  }

  void AddEdge(const std::string& src, const std::string& dst) {
    if (src.empty() || dst.empty() || src == dst) return;
    edges.insert({src, dst});
  }

  void Fixpoint() {
    // The edge set is sorted (std::set), so propagation order — and with it
    // every tie-break in the join — is deterministic.
    for (int pass = 0; pass < 64; ++pass) {
      bool changed = false;
      for (const auto& [src, dst] : edges) {
        const auto it = vals.find(src);
        if (it == vals.end()) continue;
        Val v = it->second;  // copy: vals[dst] may rehash
        // Dimension-erased target: taint flows through, dimensions do not.
        if (poly.count(dst)) v.dim = Dim::kUnknown;
        if (Join(&vals[dst], v)) changed = true;
      }
      if (!changed) return;
    }
  }

  [[nodiscard]] Val ValueOf(const std::string& node) const {
    const auto it = vals.find(node);
    return it != vals.end() ? it->second : Val{};
  }

  [[nodiscard]] static bool Concrete(Dim d) {
    return d != Dim::kUnknown && d != Dim::kConflict;
  }

  void Check(std::vector<Finding>* out, UnitsReport* units) const {
    std::set<std::pair<std::string, int>> binop_hits;  // (path, line)

    std::map<std::string, UnitsReport::FileEntry> report;

    for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
      const FileFacts& f = files[static_cast<std::size_t>(fi)];
      UnitsReport::FileEntry* entry = nullptr;
      if (units != nullptr) {
        entry = &report[f.path];
        entry->path = f.path;
      }

      // GL014: mixed-dimension binary operators.
      for (const UnitBinop& b : f.binops) {
        const std::string ln = NodeOf(fi, b.func, b.lhs);
        const std::string rn = NodeOf(fi, b.func, b.rhs);
        const Dim ld = ln.empty() ? Dim::kUnknown : ValueOf(ln).dim;
        const Dim rd = rn.empty() ? Dim::kUnknown : ValueOf(rn).dim;
        if (entry != nullptr) {
          for (const auto& [term, node, dim] :
               {std::tuple(b.lhs, ln, ld), std::tuple(b.rhs, rn, rd)}) {
            if (node.empty()) continue;  // literal / untracked operand
            if (Concrete(dim) || poly.count(node)) {
              ++entry->resolved_ops;
            } else {
              ++entry->unresolved_ops;
              entry->notes.push_back(
                  f.path + ":" + std::to_string(b.line) + ": operand '" +
                  CalleeOf(term) + "' of '" + b.op + "' has " +
                  (dim == Dim::kConflict ? "conflicting" : "no inferred") +
                  " dimension");
            }
          }
        }
        if (!Concrete(ld) || !Concrete(rd) || ld == rd) continue;
        Finding fd;
        fd.rule_id = kRuleUnits;
        fd.rule_name = "unit-confusion";
        fd.path = f.path;
        fd.line = b.line;
        fd.line_text = b.line_text;
        fd.message = "operands of '" + b.op + "' mix dimensions: '" +
                     CalleeOf(b.lhs) + "' is " + DimName(ld) + ", '" +
                     CalleeOf(b.rhs) + "' is " + DimName(rd);
        binop_hits.insert({f.path, b.line});
        out->push_back(std::move(fd));
      }

      // GL014: assignments that change a declared dimension.
      for (const UnitAssign& a : f.assigns) {
        const std::string ln = NodeOf(fi, a.func, a.lhs);
        if (ln.empty() || !declared.count(ln)) continue;
        if (binop_hits.count({f.path, a.line})) continue;  // += already hit
        const std::string rn = NodeOf(fi, a.func, a.rhs);
        if (rn.empty()) continue;
        const Dim ld = ValueOf(ln).dim;
        const Dim rd = ValueOf(rn).dim;
        if (!Concrete(ld) || !Concrete(rd) || ld == rd) continue;
        Finding fd;
        fd.rule_id = kRuleUnits;
        fd.rule_name = "unit-confusion";
        fd.path = f.path;
        fd.line = a.line;
        fd.line_text = a.line_text;
        fd.message = "assignment changes dimension: '" + CalleeOf(a.lhs) +
                     "' is declared " + DimName(ld) + " but '" +
                     CalleeOf(a.rhs) + "' is " + DimName(rd);
        out->push_back(std::move(fd));
      }

      // GL014: call arguments bound to params with a declared dimension.
      // GL016: tainted terms reaching determinism sinks.
      for (const CallArg& g : f.call_args) {
        const std::string an = NodeOf(fi, g.func, g.term);
        if (an.empty()) continue;
        const Val av = ValueOf(an);
        if (kTaintSinkCallees.count(g.callee) && av.tainted) {
          Finding fd;
          fd.rule_id = kRuleTaint;
          fd.rule_name = "determinism-taint";
          fd.path = f.path;
          fd.line = g.line;
          fd.line_text = g.line_text;
          fd.message =
              "'" + CalleeOf(g.term) + "' reaches determinism sink '" +
              g.callee + "' but carries nondeterministic data (" +
              (av.origin.empty() ? std::string("unknown origin")
                                 : av.origin) +
              "); hash only kDeterministic state (DESIGN.md §8)";
          out->push_back(std::move(fd));
        }
        if (!Concrete(av.dim) || kPassthroughCallees.count(g.callee)) {
          continue;
        }
        const std::vector<FuncRef>* targets =
            index.Resolve({fi, g.func}, g.callee);
        if (targets == nullptr) continue;
        for (const FuncRef& tgt : *targets) {
          const FileFacts& tf = files[static_cast<std::size_t>(tgt.file)];
          for (const ParamDecl& p : tf.params) {
            if (p.func != tgt.func || p.index != g.index ||
                p.units.empty()) {
              continue;
            }
            const Dim pd = DimFromString(p.units);
            if (!Concrete(pd) || pd == av.dim) continue;
            Finding fd;
            fd.rule_id = kRuleUnits;
            fd.rule_name = "unit-confusion";
            fd.path = f.path;
            fd.line = g.line;
            fd.line_text = g.line_text;
            fd.message = "argument " + std::to_string(g.index + 1) +
                         " of '" + index.Display(tgt) + "' binds '" +
                         CalleeOf(g.term) + "' (" + DimName(av.dim) +
                         ") to parameter '" + p.name + "' declared " +
                         DimName(pd);
            out->push_back(std::move(fd));
          }
        }
      }
    }

    if (units != nullptr) {
      for (auto& [path, entry] : report) {
        units->files.push_back(std::move(entry));
      }
    }
  }
};

}  // namespace

void AnalyzeDataflow(const std::vector<FileFacts>& files,
                     const SymbolIndex& index, std::vector<Finding>* out,
                     UnitsReport* units) {
  Engine engine{files, index, {}, {}, {}, {}, {}, {}, {}};
  engine.Build();
  engine.Fixpoint();
  engine.Check(out, units);
}

}  // namespace gl::analyze
