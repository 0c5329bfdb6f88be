/**
 * @file
 * Model checkpointing.
 *
 * Robots checkpoint the shared model every 50 iterations for
 * validation (Sec. VI-A) and a fielded system must persist the adapted
 * model when the mission ends. Checkpoints use a small self-describing
 * binary format ("ROGM", version, parameter table with names and
 * shapes, float32 payloads) that loads strictly: any mismatch between
 * the checkpoint and the receiving model's architecture is an error,
 * never a silent reinterpretation.
 */
#ifndef ROG_NN_SERIALIZE_HPP
#define ROG_NN_SERIALIZE_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace rog {
namespace nn {

/** Write @p model's parameter values to @p os. @throws on I/O error */
void saveModel(std::ostream &os, Model &model);

/**
 * Load parameter values into an architecturally identical model.
 *
 * @throws std::runtime_error on malformed input or if the checkpoint's
 *         parameter names/shapes do not match @p model's.
 */
void loadModel(std::istream &is, Model &model);

/** In-memory forms, for records and messages that embed a model. */
std::vector<std::uint8_t> saveModelBytes(Model &model);
void loadModelBytes(std::span<const std::uint8_t> bytes, Model &model);

/** File convenience wrappers. @throws on I/O failure. The save
 *  replaces @p path through writeFileDurably, never in place. */
void saveModelFile(const std::string &path, Model &model);
void loadModelFile(const std::string &path, Model &model);

} // namespace nn
} // namespace rog

#endif // ROG_NN_SERIALIZE_HPP
