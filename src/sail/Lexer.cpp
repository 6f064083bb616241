//===- sail/Lexer.cpp - Mini-Sail lexer ---------------------------------------===//

#include "sail/Lexer.h"

#include "support/Parse.h"

#include <unordered_map>

using namespace islaris;
using namespace islaris::sail;

static const std::unordered_map<std::string, Tok> &keywords() {
  static const std::unordered_map<std::string, Tok> KW = {
      {"register", Tok::KwRegister}, {"struct", Tok::KwStruct},
      {"function", Tok::KwFunction}, {"bits", Tok::KwBits},
      {"bool", Tok::KwBool},         {"unit", Tok::KwUnit},
      {"let", Tok::KwLet},           {"var", Tok::KwVar},
      {"if", Tok::KwIf},             {"then", Tok::KwThen},
      {"else", Tok::KwElse},         {"return", Tok::KwReturn},
      {"throw", Tok::KwThrow},       {"assert", Tok::KwAssert},
      {"true", Tok::KwTrue},         {"false", Tok::KwFalse},
  };
  return KW;
}

static bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
static bool isIdentChar(char C) {
  return isIdentStart(C) || (C >= '0' && C <= '9');
}
static bool isDigit(char C) { return C >= '0' && C <= '9'; }

Lexer::Lexer(const std::string &Src) {
  size_t I = 0;
  int Line = 1;
  auto fail = [&](const std::string &Msg) {
    if (Error.empty())
      Error = "line " + std::to_string(Line) + ": " + Msg;
  };
  auto push = [&](Tok K) {
    Token T;
    T.Kind = K;
    T.Line = Line;
    Tokens.push_back(std::move(T));
  };

  while (I < Src.size() && Error.empty()) {
    char C = Src[I];
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++I;
      continue;
    }
    if (C == '/' && I + 1 < Src.size() && Src[I + 1] == 'u') {
      push(Tok::Slash);
      I += 2;
      continue;
    }
    if (C == '%' && I + 1 < Src.size() && Src[I + 1] == 'u') {
      push(Tok::Percent);
      I += 2;
      continue;
    }
    if (C == '/' && I + 1 < Src.size() && Src[I + 1] == '/') {
      while (I < Src.size() && Src[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && I + 1 < Src.size() && Src[I + 1] == '*') {
      I += 2;
      while (I + 1 < Src.size() && !(Src[I] == '*' && Src[I + 1] == '/')) {
        if (Src[I] == '\n')
          ++Line;
        ++I;
      }
      if (I + 1 >= Src.size())
        { fail("unterminated block comment"); return; }
      I += 2;
      continue;
    }
    if (isIdentStart(C)) {
      size_t Start = I;
      while (I < Src.size() && isIdentChar(Src[I]))
        ++I;
      std::string Word = Src.substr(Start, I - Start);
      auto KwIt = keywords().find(Word);
      Token T;
      T.Line = Line;
      if (KwIt != keywords().end()) {
        T.Kind = KwIt->second;
      } else {
        T.Kind = Tok::Ident;
        T.Text = std::move(Word);
      }
      Tokens.push_back(std::move(T));
      continue;
    }
    if (isDigit(C)) {
      if (C == '0' && I + 1 < Src.size() &&
          (Src[I + 1] == 'x' || Src[I + 1] == 'b')) {
        size_t Start = I;
        I += 2;
        while (I < Src.size() && (isDigit(Src[I]) ||
                                  (Src[I] >= 'a' && Src[I] <= 'f') ||
                                  (Src[I] >= 'A' && Src[I] <= 'F')))
          ++I;
        Token T;
        T.Kind = Tok::BitsLit;
        T.Line = Line;
        if (!BitVec::fromString(Src.substr(Start, I - Start), T.Bits))
          { fail("malformed bitvector literal"); return; }
        Tokens.push_back(std::move(T));
        continue;
      }
      size_t Start = I;
      while (I < Src.size() && isDigit(Src[I]))
        ++I;
      Token T;
      T.Kind = Tok::IntLit;
      T.Line = Line;
      std::string_view Digits = std::string_view(Src).substr(Start, I - Start);
      if (!support::parseUnsigned(Digits, UINT64_MAX, T.Int))
        { fail("integer literal out of range"); return; }
      Tokens.push_back(std::move(T));
      continue;
    }
    if (C == '"') {
      size_t End = Src.find('"', I + 1);
      if (End == std::string::npos)
        { fail("unterminated string literal"); return; }
      Token T;
      T.Kind = Tok::StrLit;
      T.Line = Line;
      T.Text = Src.substr(I + 1, End - I - 1);
      Tokens.push_back(std::move(T));
      I = End + 1;
      continue;
    }

    auto two = [&](char D) {
      return I + 1 < Src.size() && Src[I + 1] == D;
    };
    switch (C) {
    case '(':
      push(Tok::LParen);
      ++I;
      break;
    case ')':
      push(Tok::RParen);
      ++I;
      break;
    case '{':
      push(Tok::LBrace);
      ++I;
      break;
    case '}':
      push(Tok::RBrace);
      ++I;
      break;
    case '[':
      push(Tok::LBracket);
      ++I;
      break;
    case ']':
      push(Tok::RBracket);
      ++I;
      break;
    case ',':
      push(Tok::Comma);
      ++I;
      break;
    case ';':
      push(Tok::Semi);
      ++I;
      break;
    case ':':
      push(Tok::Colon);
      ++I;
      break;
    case '.':
      if (two('.')) {
        push(Tok::DotDot);
        I += 2;
      } else {
        push(Tok::Dot);
        ++I;
      }
      break;
    case '@':
      push(Tok::At);
      ++I;
      break;
    case '&':
      push(Tok::Amp);
      ++I;
      break;
    case '|':
      push(Tok::Pipe);
      ++I;
      break;
    case '^':
      push(Tok::Caret);
      ++I;
      break;
    case '~':
      push(Tok::Tilde);
      ++I;
      break;
    case '+':
      push(Tok::Plus);
      ++I;
      break;
    case '*':
      push(Tok::Star);
      ++I;
      break;
    case '-':
      if (two('>')) {
        push(Tok::Arrow);
        I += 2;
      } else {
        push(Tok::Minus);
        ++I;
      }
      break;
    case '!':
      if (two('=')) {
        push(Tok::NotEq);
        I += 2;
      } else {
        push(Tok::Bang);
        ++I;
      }
      break;
    case '=':
      if (two('=')) {
        push(Tok::EqEq);
        I += 2;
      } else {
        push(Tok::Assign);
        ++I;
      }
      break;
    case '<':
      if (two('<')) {
        push(Tok::Shl);
        I += 2;
      } else if (two('u')) {
        push(Tok::ULt);
        I += 2;
      } else if (two('s')) {
        push(Tok::SLt);
        I += 2;
      } else if (two('=') && I + 2 < Src.size() && Src[I + 2] == 'u') {
        push(Tok::ULe);
        I += 3;
      } else if (two('=') && I + 2 < Src.size() && Src[I + 2] == 's') {
        push(Tok::SLe);
        I += 3;
      } else {
        { fail("use <u/<s/<=u/<=s for comparisons"); return; }
      }
      break;
    case '>':
      if (two('>') && I + 2 < Src.size() && Src[I + 2] == '>') {
        push(Tok::AShr);
        I += 3;
      } else if (two('>')) {
        push(Tok::LShr);
        I += 2;
      } else if (two('u')) {
        push(Tok::UGt);
        I += 2;
      } else if (two('s')) {
        push(Tok::SGt);
        I += 2;
      } else if (two('=') && I + 2 < Src.size() && Src[I + 2] == 'u') {
        push(Tok::UGe);
        I += 3;
      } else if (two('=') && I + 2 < Src.size() && Src[I + 2] == 's') {
        push(Tok::SGe);
        I += 3;
      } else {
        { fail("use >u/>s/>=u/>=s for comparisons"); return; }
      }
      break;
    default:
      { fail(std::string("unexpected character '") + C + "'"); return; }
    }
  }
  Token T;
  T.Kind = Tok::End;
  T.Line = Line;
  Tokens.push_back(std::move(T));
}
