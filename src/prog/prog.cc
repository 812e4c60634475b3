#include "src/prog/prog.h"

#include <algorithm>

#include "src/base/string_util.h"
#include "src/prog/arena.h"

namespace healer {

namespace {

// Single node-construction point for both ownership modes.
ArgPtr NewArg(ProgArena* arena) {
  if (arena == nullptr) {
    return ArgPtr(new Arg());
  }
  Arg* node = arena->New<Arg>();
  node->arena_owned = true;
  return ArgPtr(node);
}

}  // namespace

ArgPtr Arg::Clone() const { return CloneInto(nullptr); }

ArgPtr Arg::CloneInto(ProgArena* arena) const {
  ArgPtr copy = NewArg(arena);
  copy->type = type;
  copy->kind = kind;
  copy->val = val;
  copy->vma_pages = vma_pages;
  copy->data = data;
  copy->union_index = union_index;
  copy->res_ref = res_ref;
  copy->res_slot = res_slot;
  if (pointee != nullptr) {
    copy->pointee = pointee->CloneInto(arena);
  }
  copy->inner.reserve(inner.size());
  for (const auto& child : inner) {
    copy->inner.push_back(child->CloneInto(arena));
  }
  return copy;
}

uint64_t Arg::Size() const {
  switch (kind) {
    case ArgKind::kConstant:
    case ArgKind::kResource:
      return type != nullptr ? type->ByteSize() : 8;
    case ArgKind::kVma:
    case ArgKind::kPointer:
      return 8;
    case ArgKind::kData:
      return data.size();
    case ArgKind::kGroup: {
      uint64_t total = 0;
      for (const auto& child : inner) {
        total += child->Size();
      }
      return total;
    }
    case ArgKind::kUnion:
      return inner.empty() ? 0 : inner[0]->Size();
  }
  return 0;
}

ArgPtr MakeConstant(const Type* type, uint64_t val, ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kConstant;
  arg->val = val;
  return arg;
}

ArgPtr MakeData(const Type* type, std::vector<uint8_t> data, ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kData;
  arg->data = std::move(data);
  return arg;
}

ArgPtr MakePointer(const Type* type, ArgPtr pointee, ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kPointer;
  arg->pointee = std::move(pointee);
  return arg;
}

ArgPtr MakeNullPointer(const Type* type, ProgArena* arena) {
  return MakePointer(type, nullptr, arena);
}

ArgPtr MakeGroup(const Type* type, std::vector<ArgPtr> inner, ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kGroup;
  arg->inner = std::move(inner);
  return arg;
}

ArgPtr MakeUnion(const Type* type, int index, ArgPtr inner, ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kUnion;
  arg->union_index = index;
  arg->inner.push_back(std::move(inner));
  return arg;
}

ArgPtr MakeResourceRef(const Type* type, int call_index, int slot,
                       ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kResource;
  arg->res_ref = call_index;
  arg->res_slot = slot;
  return arg;
}

ArgPtr MakeResourceSpecial(const Type* type, uint64_t val, ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kResource;
  arg->res_ref = -1;
  arg->val = val;
  return arg;
}

ArgPtr MakeVma(const Type* type, uint64_t addr, uint64_t pages,
               ProgArena* arena) {
  ArgPtr arg = NewArg(arena);
  arg->type = type;
  arg->kind = ArgKind::kVma;
  arg->val = addr;
  arg->vma_pages = pages;
  return arg;
}

Call Call::Clone() const { return CloneInto(nullptr); }

Call Call::CloneInto(ProgArena* arena) const {
  Call copy;
  copy.meta = meta;
  copy.args.reserve(args.size());
  for (const auto& arg : args) {
    copy.args.push_back(arg->CloneInto(arena));
  }
  return copy;
}

namespace {

void VisitArg(Arg& arg, const std::function<void(Arg&)>& fn) {
  fn(arg);
  if (arg.pointee != nullptr) {
    VisitArg(*arg.pointee, fn);
  }
  for (auto& child : arg.inner) {
    VisitArg(*child, fn);
  }
}

void VisitArgConst(const Arg& arg, const std::function<void(const Arg&)>& fn) {
  fn(arg);
  if (arg.pointee != nullptr) {
    VisitArgConst(*arg.pointee, fn);
  }
  for (const auto& child : arg.inner) {
    VisitArgConst(*child, fn);
  }
}

}  // namespace

void ForEachArg(Call& call, const std::function<void(Arg&)>& fn) {
  for (auto& arg : call.args) {
    VisitArg(*arg, fn);
  }
}

void ForEachArg(const Call& call, const std::function<void(const Arg&)>& fn) {
  for (const auto& arg : call.args) {
    VisitArgConst(*arg, fn);
  }
}

Prog Prog::Clone() const { return CloneInto(nullptr); }

Prog Prog::CloneInto(ProgArena* arena) const {
  Prog copy(target_);
  copy.calls_.reserve(calls_.size());
  for (const auto& call : calls_) {
    copy.calls_.push_back(call.CloneInto(arena));
  }
  return copy;
}

namespace {

// Degrades a resource reference to its kind's special value.
void DegradeResource(Arg& arg) {
  arg.res_ref = -1;
  arg.res_slot = 0;
  uint64_t special = static_cast<uint64_t>(-1);
  if (arg.type != nullptr && arg.type->resource != nullptr &&
      !arg.type->resource->special_values.empty()) {
    special = arg.type->resource->special_values[0];
  }
  arg.val = special;
}

}  // namespace

void Prog::RemoveCall(size_t index) {
  if (index >= calls_.size()) {
    return;
  }
  calls_.erase(calls_.begin() + static_cast<long>(index));
  for (auto& call : calls_) {
    ForEachArg(call, [index](Arg& arg) {
      if (arg.kind != ArgKind::kResource || arg.res_ref < 0) {
        return;
      }
      if (static_cast<size_t>(arg.res_ref) == index) {
        DegradeResource(arg);
      } else if (static_cast<size_t>(arg.res_ref) > index) {
        --arg.res_ref;
      }
    });
  }
}

void Prog::Truncate(size_t count) {
  while (calls_.size() > count) {
    RemoveCall(calls_.size() - 1);
  }
}

Prog SelectCalls(const Prog& prog, const CallMask& keep, ProgArena* arena) {
  // dropped_before[i]: dropped calls with index < i — the shift RemoveCall
  // would have applied to a reference to call i.
  const size_t n = prog.size();
  std::vector<size_t> dropped_before(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    dropped_before[i + 1] = dropped_before[i] + (keep[i] == 0 ? 1 : 0);
  }
  Prog out(prog.target());
  out.calls().reserve(n - dropped_before[n]);
  for (size_t i = 0; i < n; ++i) {
    if (keep[i] == 0) {
      continue;
    }
    out.calls().push_back(prog.calls()[i].CloneInto(arena));
    ForEachArg(out.calls().back(), [&](Arg& arg) {
      if (arg.kind != ArgKind::kResource || arg.res_ref < 0) {
        return;
      }
      const size_t ref = static_cast<size_t>(arg.res_ref);
      if (ref < n && keep[ref] == 0) {
        DegradeResource(arg);
      } else {
        arg.res_ref -= static_cast<int>(dropped_before[std::min(ref, n)]);
      }
    });
  }
  return out;
}

uint64_t LenValueFor(const Arg& target) {
  switch (target.kind) {
    case ArgKind::kVma:
      return target.vma_pages * 4096;
    case ArgKind::kPointer: {
      if (target.pointee == nullptr) {
        return 0;
      }
      const Arg& pointee = *target.pointee;
      // Array pointees are counted in elements, everything else in bytes
      // (matching the kernel handlers' conventions).
      if (pointee.type != nullptr && pointee.type->kind == TypeKind::kArray) {
        return pointee.inner.size();
      }
      return pointee.Size();
    }
    case ArgKind::kData:
      return target.data.size();
    default:
      return target.Size();
  }
}

void Prog::FixupLens() {
  for (auto& call : calls_) {
    if (call.meta == nullptr) {
      continue;
    }
    // Top-level args.
    for (size_t i = 0; i < call.args.size(); ++i) {
      Arg& arg = *call.args[i];
      if (arg.type == nullptr || arg.type->kind != TypeKind::kLen) {
        continue;
      }
      for (size_t j = 0; j < call.args.size(); ++j) {
        if (call.meta->args[j].name == arg.type->len_target) {
          arg.val = LenValueFor(*call.args[j]);
          break;
        }
      }
    }
    // Struct-embedded lens.
    ForEachArg(call, [](Arg& arg) {
      if (arg.kind != ArgKind::kGroup || arg.type == nullptr ||
          arg.type->kind != TypeKind::kStruct) {
        return;
      }
      for (size_t i = 0; i < arg.inner.size(); ++i) {
        Arg& field = *arg.inner[i];
        if (field.type == nullptr || field.type->kind != TypeKind::kLen) {
          continue;
        }
        for (size_t j = 0; j < arg.inner.size() &&
                           j < arg.type->fields.size();
             ++j) {
          if (arg.type->fields[j].name == field.type->len_target) {
            field.val = LenValueFor(*arg.inner[j]);
            break;
          }
        }
      }
    });
  }
}

Status Prog::Validate() const {
  for (size_t ci = 0; ci < calls_.size(); ++ci) {
    const Call& call = calls_[ci];
    if (call.meta == nullptr) {
      return Internal(StrFormat("call %zu has no metadata", ci));
    }
    if (call.args.size() != call.meta->args.size()) {
      return Internal(StrFormat("call %zu (%s): arg count %zu != %zu", ci,
                                call.meta->name.c_str(), call.args.size(),
                                call.meta->args.size()));
    }
    Status status = OkStatus();
    ForEachArg(call, [&](const Arg& arg) {
      if (!status.ok()) {
        return;
      }
      if (arg.kind == ArgKind::kResource && arg.res_ref >= 0) {
        if (static_cast<size_t>(arg.res_ref) >= ci) {
          status = Internal(StrFormat(
              "call %zu (%s): resource ref %d not before the call", ci,
              call.meta->name.c_str(), arg.res_ref));
          return;
        }
        const Syscall* producer = calls_[static_cast<size_t>(arg.res_ref)].meta;
        if (arg.type == nullptr || arg.type->resource == nullptr) {
          status = Internal(
              StrFormat("call %zu: resource arg without resource type", ci));
          return;
        }
        bool compatible = false;
        for (const ResourceDesc* produced : producer->produced_resources) {
          if (produced->IsCompatibleWith(arg.type->resource)) {
            compatible = true;
            break;
          }
        }
        if (!compatible) {
          status = Internal(StrFormat(
              "call %zu (%s): ref to call %d (%s) which does not produce %s",
              ci, call.meta->name.c_str(), arg.res_ref,
              producer->name.c_str(), arg.type->resource->name.c_str()));
        }
      }
    });
    if (!status.ok()) {
      return status;
    }
  }
  return OkStatus();
}

namespace {

void AppendArgString(const Arg& arg, std::string* out) {
  switch (arg.kind) {
    case ArgKind::kConstant:
      out->append(StrFormat("0x%llx", (unsigned long long)arg.val));
      break;
    case ArgKind::kData: {
      out->append(StrFormat("bytes[%zu]", arg.data.size()));
      break;
    }
    case ArgKind::kPointer:
      if (arg.pointee == nullptr) {
        out->append("nil");
      } else {
        out->push_back('&');
        AppendArgString(*arg.pointee, out);
      }
      break;
    case ArgKind::kGroup: {
      out->push_back('{');
      for (size_t i = 0; i < arg.inner.size(); ++i) {
        if (i != 0) {
          out->append(", ");
        }
        AppendArgString(*arg.inner[i], out);
      }
      out->push_back('}');
      break;
    }
    case ArgKind::kUnion:
      out->append(StrFormat("u%d:", arg.union_index));
      if (!arg.inner.empty()) {
        AppendArgString(*arg.inner[0], out);
      }
      break;
    case ArgKind::kResource:
      if (arg.res_ref >= 0) {
        out->append(StrFormat("r%d", arg.res_ref));
        if (arg.res_slot != 0) {
          out->append(StrFormat(".%d", arg.res_slot));
        }
      } else {
        out->append(StrFormat("special(0x%llx)", (unsigned long long)arg.val));
      }
      break;
    case ArgKind::kVma:
      out->append(StrFormat("vma(0x%llx, %llu pages)",
                            (unsigned long long)arg.val,
                            (unsigned long long)arg.vma_pages));
      break;
  }
}

}  // namespace

std::string Prog::ToString() const {
  std::string out;
  for (size_t i = 0; i < calls_.size(); ++i) {
    const Call& call = calls_[i];
    if (call.meta->ret != nullptr) {
      out.append(StrFormat("r%zu = ", i));
    }
    out.append(call.meta->name);
    out.push_back('(');
    for (size_t j = 0; j < call.args.size(); ++j) {
      if (j != 0) {
        out.append(", ");
      }
      AppendArgString(*call.args[j], &out);
    }
    out.append(")\n");
  }
  return out;
}

}  // namespace healer
