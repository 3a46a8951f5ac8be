//===- analysis/AccessPath.h - Client-rooted access paths -------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Access paths rooted at a client-visible value: the receiver (I0), an
/// argument (Ii), or a method's return value (Ir).  These are the paper's
/// shadow parameter variables of §3.2: when the analysis reports that the
/// unprotected access at some label touches "I0.x.o", a synthesized test can
/// arrange a race by making I0.x of two invocations reference one object.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_ANALYSIS_ACCESSPATH_H
#define NARADA_ANALYSIS_ACCESSPATH_H

#include <string>
#include <vector>

namespace narada {

/// Root index of the return value pseudo-parameter Ir.
inline constexpr int ReturnRoot = -1;

/// A field path rooted at a client-visible value of a library invocation.
struct AccessPath {
  /// 0 = receiver (I0), i >= 1 = i-th argument (Ii), ReturnRoot = Ir.
  int Root = 0;
  std::vector<std::string> Fields;

  AccessPath() = default;
  AccessPath(int Root, std::vector<std::string> Fields)
      : Root(Root), Fields(std::move(Fields)) {}

  size_t depth() const { return Fields.size(); }

  /// Returns this path extended by \p Field.
  AccessPath appended(const std::string &Field) const {
    AccessPath Out = *this;
    Out.Fields.push_back(Field);
    return Out;
  }

  /// Returns the path without its last field; requires depth() > 0.
  AccessPath parent() const {
    AccessPath Out = *this;
    Out.Fields.pop_back();
    return Out;
  }

  /// True if \p Prefix is a (non-strict) prefix of this path: same root and
  /// this->Fields starts with Prefix.Fields.
  bool hasPrefix(const AccessPath &Prefix) const {
    if (Root != Prefix.Root || Prefix.Fields.size() > Fields.size())
      return false;
    for (size_t I = 0; I != Prefix.Fields.size(); ++I)
      if (Fields[I] != Prefix.Fields[I])
        return false;
    return true;
  }

  /// The fields of this path after removing \p Prefix; requires
  /// hasPrefix(Prefix).
  std::vector<std::string> suffixAfter(const AccessPath &Prefix) const {
    return std::vector<std::string>(Fields.begin() +
                                        static_cast<long>(Prefix.Fields.size()),
                                    Fields.end());
  }

  bool operator==(const AccessPath &Other) const {
    return Root == Other.Root && Fields == Other.Fields;
  }
  bool operator!=(const AccessPath &Other) const { return !(*this == Other); }
  bool operator<(const AccessPath &Other) const {
    if (Root != Other.Root)
      return Root < Other.Root;
    return Fields < Other.Fields;
  }

  /// "I0.x.o", "I2", "Ir.queue".
  std::string str() const {
    std::string Out = Root == ReturnRoot ? "Ir" : "I" + std::to_string(Root);
    for (const std::string &F : Fields) {
      Out += '.';
      Out += F;
    }
    return Out;
  }
};

} // namespace narada

#endif // NARADA_ANALYSIS_ACCESSPATH_H
