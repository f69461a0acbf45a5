#include <gtest/gtest.h>

#include "structure/signature.hpp"
#include "structure/structure.hpp"
#include "structure/structure_io.hpp"

namespace treedl {
namespace {

TEST(SignatureTest, MakeAndLookup) {
  auto sig = Signature::Make({{"e", 2}, {"color", 1}});
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), 2);
  EXPECT_EQ(sig->PredicateIdOf("e").value(), 0);
  EXPECT_EQ(sig->arity(sig->PredicateIdOf("color").value()), 1);
  EXPECT_FALSE(sig->PredicateIdOf("missing").ok());
}

TEST(SignatureTest, RejectsDuplicatesAndBadArity) {
  Signature sig;
  ASSERT_TRUE(sig.AddPredicate("p", 1).ok());
  EXPECT_EQ(sig.AddPredicate("p", 2).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(sig.AddPredicate("q", -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sig.AddPredicate("", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SignatureTest, BuiltinSignatures) {
  Signature schema = Signature::SchemaSignature();
  EXPECT_EQ(schema.size(), 4);
  EXPECT_EQ(schema.arity(schema.PredicateIdOf("lh").value()), 2);
  Signature graph = Signature::GraphSignature();
  EXPECT_EQ(graph.size(), 1);
  EXPECT_EQ(graph.arity(0), 2);
}

Structure PaperStructure() {
  // Ex 2.2: the τ-structure of the running-example schema.
  auto parsed = ParseStructure(Signature::SchemaSignature(),
                               "att(a). att(b). att(c). att(d). att(e). att(g).\n"
                               "fd(f1). fd(f2). fd(f3). fd(f4). fd(f5).\n"
                               "lh(a, f1). lh(b, f1). lh(c, f2). lh(c, f3).\n"
                               "lh(d, f3). lh(d, f4). lh(e, f4). lh(g, f5).\n"
                               "rh(c, f1). rh(b, f2). rh(e, f3). rh(g, f4).\n"
                               "rh(e, f5).\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return std::move(parsed).value();
}

TEST(StructureTest, PaperExampleCounts) {
  Structure s = PaperStructure();
  EXPECT_EQ(s.NumElements(), 11u);  // 6 attributes + 5 FDs
  PredicateId lh = s.signature().PredicateIdOf("lh").value();
  PredicateId rh = s.signature().PredicateIdOf("rh").value();
  EXPECT_EQ(s.Relation(lh).size(), 8u);
  EXPECT_EQ(s.Relation(rh).size(), 5u);
  EXPECT_EQ(s.NumFacts(), 6u + 5u + 8u + 5u);
}

TEST(StructureTest, FactDeduplicationAndMembership) {
  Structure s(Signature::GraphSignature());
  ElementId a = s.AddElement("a");
  ElementId b = s.AddElement("b");
  PredicateId e = 0;
  ASSERT_TRUE(s.AddFact(e, {a, b}).ok());
  ASSERT_TRUE(s.AddFact(e, {a, b}).ok());  // duplicate ignored
  EXPECT_EQ(s.NumFacts(), 1u);
  EXPECT_TRUE(s.HasFact(e, {a, b}));
  EXPECT_FALSE(s.HasFact(e, {b, a}));
}

TEST(StructureTest, ArityAndRangeChecks) {
  Structure s(Signature::GraphSignature());
  ElementId a = s.AddElement("a");
  EXPECT_EQ(s.AddFact(0, {a}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.AddFact(0, {a, 99}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.AddFact(5, {a, a}).code(), StatusCode::kInvalidArgument);
}

TEST(StructureTest, ElementInterningIsIdempotent) {
  Structure s(Signature::GraphSignature());
  EXPECT_EQ(s.AddElement("x"), s.AddElement("x"));
  EXPECT_EQ(s.NumElements(), 1u);
  EXPECT_TRUE(s.HasElementNamed("x"));
  EXPECT_FALSE(s.ElementByName("y").ok());
}

TEST(StructureTest, InducedSubstructureKeepsOnlyInternalFacts) {
  Structure s = PaperStructure();
  // Keep {b, c, f1, f2}: the cycle from Ex 2.2's width argument.
  std::vector<ElementId> keep;
  for (const char* name : {"b", "c", "f1", "f2"}) {
    keep.push_back(s.ElementByName(name).value());
  }
  std::unordered_map<ElementId, ElementId> translation;
  Structure sub = s.InducedSubstructure(keep, &translation);
  EXPECT_EQ(sub.NumElements(), 4u);
  PredicateId lh = sub.signature().PredicateIdOf("lh").value();
  PredicateId rh = sub.signature().PredicateIdOf("rh").value();
  // lh: (b,f1), (c,f2); rh: (c,f1), (b,f2). lh(a,f1) dropped since a is gone.
  EXPECT_EQ(sub.Relation(lh).size(), 2u);
  EXPECT_EQ(sub.Relation(rh).size(), 2u);
  ElementId b_new = translation.at(s.ElementByName("b").value());
  EXPECT_EQ(sub.ElementName(b_new), "b");
}

TEST(StructureTest, EqualityIsOrderInsensitiveOnFacts) {
  Structure s1(Signature::GraphSignature());
  Structure s2(Signature::GraphSignature());
  ElementId a1 = s1.AddElement("a"), b1 = s1.AddElement("b");
  ElementId a2 = s2.AddElement("a"), b2 = s2.AddElement("b");
  ASSERT_TRUE(s1.AddFact(0, {a1, b1}).ok());
  ASSERT_TRUE(s1.AddFact(0, {b1, a1}).ok());
  ASSERT_TRUE(s2.AddFact(0, {b2, a2}).ok());
  ASSERT_TRUE(s2.AddFact(0, {a2, b2}).ok());
  EXPECT_TRUE(s1 == s2);
}

TEST(StructureIoTest, RoundTrip) {
  Structure s = PaperStructure();
  std::string text = FormatStructure(s);
  auto reparsed = ParseStructure(Signature::SchemaSignature(), text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(s == *reparsed);
}

TEST(StructureIoTest, RoundTripIsolatedElement) {
  Structure s(Signature::GraphSignature());
  s.AddElement("lonely");
  std::string text = FormatStructure(s);
  auto reparsed = ParseStructure(Signature::GraphSignature(), text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->NumElements(), 1u);
  EXPECT_TRUE(reparsed->HasElementNamed("lonely"));
}

TEST(StructureIoTest, ParseErrors) {
  Signature sig = Signature::GraphSignature();
  EXPECT_EQ(ParseStructure(sig, "e(a, b)\n").status().code(),
            StatusCode::kParseError);  // missing dot
  EXPECT_EQ(ParseStructure(sig, "e(a.\n").status().code(),
            StatusCode::kParseError);  // unbalanced parens
  EXPECT_EQ(ParseStructure(sig, "unknown(a, b).\n").status().code(),
            StatusCode::kParseError);  // unknown predicate
  EXPECT_EQ(ParseStructure(sig, "e(a).\n").status().code(),
            StatusCode::kParseError);  // arity
}

TEST(StructureIoTest, CommentsAndBlanksIgnored) {
  auto parsed = ParseStructure(Signature::GraphSignature(),
                               "% a comment\n\n  e(a, b). % trailing\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumFacts(), 1u);
}

// --- ParseStructure golden cases -------------------------------------------

Signature GoldenSignature() {
  return Signature::Make({{"flag", 0}, {"p", 1}, {"e", 2}, {"t", 3}}).value();
}

struct GoldenParse {
  const char* text;
  const char* formatted;  // FormatStructure of the parse
};

TEST(StructureIoTest, GoldenParsesRoundTrip) {
  const GoldenParse cases[] = {
      // Several facts on one line, and one fact per line.
      {"e(a, b). e(b, c).e(c,a).\nt(a, b, c).\n",
       "element(a).\nelement(b).\nelement(c).\n"
       "e(a, b).\ne(b, c).\ne(c, a).\nt(a, b, c).\n"},
      // '%' comments, blank lines, surrounding whitespace and \r\n.
      {"% header\n\n   e(x, y).   % trailing\r\n% e(no, no).\n\tp(y).\n",
       "element(x).\nelement(y).\np(y).\ne(x, y).\n"},
      // Zero-arity atoms, bare and with empty parentheses.
      {"flag. flag().\np(a).\n", "element(a).\nflag.\np(a).\n"},
      // element/1 declares isolated elements and fixes their ids.
      {"element(z). element(y).\ne(y, x). element(y).\n",
       "element(z).\nelement(y).\nelement(x).\ne(y, x).\n"},
      // Duplicate facts collapse; repeated arguments stay.
      {"e(a, b). e(a, b).\ne(a,b). t(a, a, b). t(a, a, b).\n",
       "element(a).\nelement(b).\ne(a, b).\nt(a, a, b).\n"},
      // Identifiers with digits, underscores and primes; empty statements.
      {"e(_a1, b'). . e(b', C_2)..\n",
       "element(_a1).\nelement(b').\nelement(C_2).\n"
       "e(_a1, b').\ne(b', C_2).\n"},
      // Nothing at all.
      {"", ""},
      {"% only a comment\n\n", ""},
  };
  for (const GoldenParse& c : cases) {
    SCOPED_TRACE(c.text);
    auto parsed = ParseStructure(GoldenSignature(), c.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    std::string formatted = FormatStructure(*parsed);
    EXPECT_EQ(formatted, c.formatted);
    auto reparsed = ParseStructure(GoldenSignature(), formatted);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_TRUE(*reparsed == *parsed);
    EXPECT_EQ(FormatStructure(*reparsed), formatted);
  }
}

struct GoldenError {
  const char* text;
  const char* message;
};

TEST(StructureIoTest, GoldenParseErrorMessages) {
  const GoldenError cases[] = {
      {"e(a, b)\n", "line 1: expected trailing '.'"},
      {"e(a, b). p(a)\n", "line 1: expected trailing '.'"},
      {"e(a.\n", "line 1: unbalanced parentheses in atom: e(a"},
      {"e)a(b.\n", "line 1: unbalanced parentheses in atom: e)a(b"},
      {"\n% skip\n\nunknown(a, b).\n",
       "line 4: NotFound: unknown predicate: unknown"},
      {"e(a).\n",
       "line 1: InvalidArgument: arity mismatch for e: got 1, want 2"},
      {"flag(a).\n",
       "line 1: InvalidArgument: arity mismatch for flag: got 1, want 0"},
      {"e(a, 1b).\n", "line 1: malformed argument '1b' in atom: e(a, 1b)"},
      {"e(a, ).\n", "line 1: malformed argument '' in atom: e(a, )"},
      {"e(a, (b)).\n", "line 1: malformed argument '(b)' in atom: e(a, (b))"},
      {"e(a, b)).\n", "line 1: malformed argument 'b)' in atom: e(a, b))"},
      {"1e(a, b).\n", "line 1: malformed predicate name: 1e(a, b)"},
      {"(a, b).\n", "line 1: malformed predicate name: (a, b)"},
      {"e a.\n", "line 1: malformed atom: e a"},
      {"p(a). e(a, b). ?.\n", "line 1: malformed atom: ?"},
      {"element(a, b).\n", "line 1: element/1 expects one argument"},
      {"element.\n", "line 1: element/1 expects one argument"},
      // Text after the closing parenthesis.
      {"e(a, b)junk.\n",
       "line 1: unexpected text after ')' in atom: e(a, b)junk"},
      {"p(a).\ne(a, b) x y.\n",
       "line 2: unexpected text after ')' in atom: e(a, b) x y"},
      // The closing parenthesis is the last one, so this is an argument error.
      {"e(a, b)(c).\n", "line 1: malformed argument 'b)(c' in atom: e(a, b)(c)"},
  };
  for (const GoldenError& c : cases) {
    SCOPED_TRACE(c.text);
    auto parsed = ParseStructure(GoldenSignature(), c.text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_EQ(parsed.status().message(), c.message);
  }
}

}  // namespace
}  // namespace treedl
