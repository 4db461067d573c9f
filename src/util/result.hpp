// Minimal expected/status vocabulary used across the framework.
//
// The C++20 toolchain in use has no std::expected, so we carry a small
// equivalent whose success paths never allocate. Errors are descriptive
// strings plus an optional byte offset (parsers attach the wire position
// where the failure was detected, which the tests assert on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace protoobf {

/// Failure class. Truncated means the input ended before the message did:
/// the same bytes with more appended may parse, so stream framers translate
/// it into a need-more-bytes signal instead of a parse failure. Malformed
/// input can never parse no matter what follows.
enum class ErrorKind : std::uint8_t { Malformed, Truncated };

/// Error descriptor. `offset` is meaningful for wire/spec parse errors;
/// `need` (Truncated only) is a lower bound on the additional bytes
/// required before the parse could progress past the failure point.
struct Error {
  std::string message;
  std::size_t offset = kNoOffset;
  ErrorKind kind = ErrorKind::Malformed;
  std::size_t need = 0;

  static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

  bool truncated() const { return kind == ErrorKind::Truncated; }
};

/// Tag wrapper so Expected<T> construction from an error is unambiguous.
struct Unexpected {
  Error error;
  explicit Unexpected(Error e) : error(std::move(e)) {}
  explicit Unexpected(std::string message, std::size_t offset = Error::kNoOffset)
      : error{std::move(message), offset} {}

  /// Truncated-input error with a minimum-additional-bytes hint.
  static Unexpected truncated(std::string message, std::size_t offset,
                              std::size_t need) {
    return Unexpected(
        Error{std::move(message), offset, ErrorKind::Truncated,
              need > 0 ? need : 1});
  }
};

/// Value-or-error container; a pared down std::expected<T, Error>.
template <typename T>
class Expected {
 public:
  Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Expected(Unexpected u) : state_(std::in_place_index<1>, std::move(u.error)) {}

  bool ok() const { return state_.index() == 0; }
  explicit operator bool() const { return ok(); }

  T& value() & { return std::get<0>(state_); }
  const T& value() const& { return std::get<0>(state_); }
  T&& value() && { return std::get<0>(std::move(state_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  const Error& error() const { return std::get<1>(state_); }

 private:
  std::variant<T, Error> state_;
};

/// Success-or-error for operations with no payload. A success is one null
/// pointer, so returning and destroying it builds no Error; copies are deep.
class Status {
 public:
  Status() = default;
  Status(Unexpected u) : error_(std::make_unique<Error>(std::move(u.error))) {}
  Status(const Status& other)
      : error_(other.error_ ? std::make_unique<Error>(*other.error_)
                            : nullptr) {}
  Status(Status&&) noexcept = default;
  Status& operator=(const Status& other) { return *this = Status(other); }
  Status& operator=(Status&&) noexcept = default;

  bool ok() const { return error_ == nullptr; }
  explicit operator bool() const { return ok(); }
  /// The failure; an empty Error on success.
  const Error& error() const { return error_ ? *error_ : kNoError; }

  static Status success() { return Status(); }

 private:
  static inline const Error kNoError{};
  std::unique_ptr<Error> error_;
};

}  // namespace protoobf
