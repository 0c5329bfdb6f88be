/**
 * @file
 * Test oracle: the run-log and transport-log writers as they were
 * before every record was rendered through common/text_line's
 * appendNumber — each one an std::ostringstream at the stream's
 * default precision (6) for the node run log and at precision 17 for
 * transport event lines and wire traces.
 *
 * line_render_diff_test renders random records through both these and
 * the production writers and compares the bytes. Production code never
 * links this.
 */
#ifndef ROG_TESTS_COMMON_LEGACY_RENDER_HPP
#define ROG_TESTS_COMMON_LEGACY_RENDER_HPP

#include <string>

#include "core/node_event.hpp"
#include "net/transport/event_log.hpp"

namespace rog {
namespace legacy {

/** core::toLine as an iostream writer. */
std::string nodeEventLine(const core::NodeEvent &ev);

/** net::transport::toString(TransportEvent) as an iostream writer. */
std::string transportEventLine(const net::transport::TransportEvent &ev);

/** TransportTrace::toText as an iostream writer. */
std::string traceText(const net::transport::TransportTrace &trace);

} // namespace legacy
} // namespace rog

#endif // ROG_TESTS_COMMON_LEGACY_RENDER_HPP
